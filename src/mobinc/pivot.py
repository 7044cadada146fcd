"""Pivot reduction: trading curved transformations for affine lines.

Fix a pivot q = (q1, q2).  Every transformation f through q with c != 0 can
be scaled to c = 1, which forces b = q2(q1 + d) - a*q1.  Conjugating by the
two unit-determinant maps x -> 1/(q2 - x) (outside) and x -> q1 - 1/x
(inside) turns f into the upper-triangular matrix

    ((q1 + d, -1), (0, a - q2)),

i.e. the line y = ((q1 + d)x - 1)/(a - q2).  Transplanting each point
(s1, s2) with s1 != q1, s2 != q2 to (1/(q1 - s1), 1/(q2 - s2)) preserves
incidences exactly, and the only incidence lost to the two excluded rows is
the pivot itself.  Affine maps (c = 0) through q land on the lines through
the origin, so the maps through q correspond one-to-one to the lines that
are neither vertical nor horizontal.  When pivots transplant only later
points, a map with r points of P shows up at its t-th point as a line
through exactly r - t of them, so each map with at least j points has
exactly one production whose line carries exactly j - 1 later points.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import NamedTuple, Optional, Union

from .errors import WorkLimitError
from .field import FieldContext, MoebiusMap, parallel_map
from .incidence import PointSet, TransformSet


class NonVertical(NamedTuple):
    slope: int
    intercept: int


class Vertical(NamedTuple):
    x: int


AffineLine = Union[NonVertical, Vertical]


def transforms_through_pivot(
    T: TransformSet, q: tuple[int, int]
) -> tuple[TransformSet, TransformSet]:
    """Split the members of T passing through q into (affine, curved) parts."""
    ctx = T.ctx
    p = ctx.p
    q1, q2 = q[0] % p, q[1] % p
    affine, curved = [], []
    for key, f in zip(T.keys, T):
        if f(q1) == q2:
            (affine if f.c == 0 else curved).append(key)
    return TransformSet.from_sorted(affine, ctx), TransformSet.from_sorted(curved, ctx)


def conjugate_through_pivot(
    f: MoebiusMap, q: tuple[int, int]
) -> tuple[int, int, int, int]:
    """The unreduced conjugate matrix of f at pivot q, before any rescaling.

    f must pass through q with c != 0.  The result is upper triangular with
    entries ((q1+d, -1), (0, a-q2)) taken from the c = 1 scaling of f, and
    its determinant equals det of that scaling exactly.
    """
    ctx = f.ctx
    p = ctx.p
    q1, q2 = q[0] % p, q[1] % p
    if f.c == 0:
        raise ValueError(f"{f!r} is affine; the conjugate needs c != 0")
    if f(q1) != q2:
        raise ValueError(f"{f!r} does not map {q1} to {q2}")
    s = ctx._inv[f.c]
    a = f.a * s % p
    d = f.d * s % p
    # a = q2 would force det = 0, so the bottom-right entry is nonzero.
    return ((q1 + d) % p, p - 1, 0, (a - q2) % p)


def line_image(f: MoebiusMap, q: tuple[int, int]) -> NonVertical:
    """The affine line that the curved map f through q conjugates to.

    The intercept is -1/(a - q2), which is never zero, and the slope is
    (q1 + d)/(a - q2), which is never zero either (slope 0 would need
    d = -q1, putting the pole of f at q1).
    """
    ctx = f.ctx
    p = ctx.p
    A, B, _, D = conjugate_through_pivot(f, q)
    s = ctx._inv[D]
    return NonVertical(A * s % p, B * s % p)


def transplant_points(P: PointSet, q: tuple[int, int]) -> tuple[PointSet, int]:
    """Move P to the line side of the pivot reduction at q.

    Points on the rows x = q1 or y = q2 are dropped; the count of dropped
    points is returned alongside.  On the kept domain the move is injective
    (each coordinate is separately invertible).
    """
    kept = _transplant(P.points, *(c % P.ctx.p for c in q), P.ctx)
    return PointSet(kept, P.ctx), len(P) - len(kept)


def _transplant(points, q1: int, q2: int, ctx: FieldContext) -> list[tuple[int, int]]:
    p, inv = ctx.p, ctx._inv
    return [(inv[(q1 - x) % p], inv[(q2 - y) % p]) for x, y in points if x != q1 and y != q2]


def line_through(
    s: tuple[int, int], t: tuple[int, int], ctx: FieldContext
) -> AffineLine:
    """The unique line through two distinct points, in canonical form."""
    p = ctx.p
    x1, y1 = s[0] % p, s[1] % p
    x2, y2 = t[0] % p, t[1] % p
    if (x1, y1) == (x2, y2):
        raise ValueError(f"need two distinct points, got {s!r} twice")
    if x1 == x2:
        return Vertical(x1)
    m = (y2 - y1) * ctx._inv[(x2 - x1) % p] % p
    return NonVertical(m, (y1 - m * x1) % p)


def point_on_line(s: tuple[int, int], line: AffineLine, ctx: FieldContext) -> bool:
    p = ctx.p
    if isinstance(line, Vertical):
        return s[0] % p == line.x
    return (s[1] - line.slope * s[0] - line.intercept) % p == 0


def _line_pairs(points, ctx: FieldContext) -> dict[int, int]:
    """Point pairs per line: m(m-1)/2 on a line through m of the points.

    y = sx + i is keyed s*p + i, so horizontal lines fall below p; x = c is
    keyed p*p + c, after all others.
    """
    p, inv = ctx.p, ctx._inv
    pairs: dict[int, int] = {}
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i + 1 :]:
            if x1 != x2:
                m = (y2 - y1) * inv[(x2 - x1) % p] % p
                key = m * p + (y1 - m * x1) % p
            else:
                key = p * p + x1
            pairs[key] = pairs.get(key, 0) + 1
    return pairs


# rich_lines counts the pairs on each line in time and memory growing as n^2: at
# p = 9973, 2000 random points take 2.1 s and 184 MB, 3000 take 5.1 s and 347 MB.
MAX_LINE_PAIRS = math.comb(2000, 2)


def refuse_line_work(n: int) -> None:
    """Refuse, before it starts, a rich-line count of n points over the limit."""
    if n * (n - 1) // 2 > MAX_LINE_PAIRS:
        raise WorkLimitError(
            f"the rich lines of {n} points need {n * (n - 1) // 2} point pairs, "
            f"over the limit C(2000, 2) = {MAX_LINE_PAIRS}; give at most 2000 points"
        )


def rich_lines(P: PointSet, j: int) -> tuple[AffineLine, ...]:
    """Lines with at least j >= 2 points of P, by (slope, intercept), verticals last."""
    if j < 2:
        raise ValueError(f"rich lines need a threshold >= 2, got {j}")
    p, least = P.ctx.p, j * (j - 1) // 2
    keys = sorted(key for key, c in _line_pairs(P.points, P.ctx).items() if c >= least)
    return tuple(
        NonVertical(*divmod(key, p)) if key < p * p else Vertical(key - p * p) for key in keys
    )


def line_preimage(
    line: AffineLine, q: tuple[int, int], ctx: FieldContext
) -> Optional[MoebiusMap]:
    """The map through q whose transplanted graph is the line, or None.

    The line t2 = s*t1 + i pulls back to a map of determinant s, curved when
    i != 0 (the inverse of line_image) and affine of slope 1/s when i = 0.
    Vertical and horizontal lines are the only ones with no preimage.
    """
    if isinstance(line, Vertical) or line.slope == 0:
        return None
    q1, q2 = q
    s, i = line
    return MoebiusMap(1 - i * q2, q2 * s + i * q1 * q2 - q1, -i, s + i * q1, ctx)


# The pivot enumeration of 200 points: its work grows as n^3 whatever p and
# k.  At k = 3 and p = 9973 it yields 1.3 million maps; beck counts them in
# 2 s and 24 MB, and the sorted rich-enum listing takes 5 s and 105 MB.
MAX_PIVOT_WORK = 200**3


def refuse_pivot_work(n: int) -> None:
    """Refuse, before it starts, a pivot enumeration of n points over the limit."""
    if n**3 > MAX_PIVOT_WORK:
        raise WorkLimitError(
            f"the pivot enumeration of {n} points needs about {n}^3 = {n**3} "
            f"steps, over the limit 200^3 = {MAX_PIVOT_WORK}; give at most 200 points"
        )


def _later_lines(P: PointSet, k: int):
    """(pivot, key, pairs) per non-axis line through k-1 or more later points."""
    if k < 3:
        raise ValueError(f"pivot enumeration needs k >= 3, got {k}")
    ctx, p, pts = P.ctx, P.ctx.p, P.points
    least = (k - 1) * (k - 2) // 2
    for i, q in enumerate(pts):
        for key, pairs in _line_pairs(_transplant(pts[i + 1 :], *q, ctx), ctx).items():
            if pairs >= least and p <= key < p * p:
                yield q, key, pairs


def rich_counts(P: PointSet, k: int) -> dict[int, int]:
    """For each r >= k, the number of maps with at least r points of P.

    These are the lines through exactly m = r - 1 later points, whose
    m(m-1)/2 pairs give isqrt(1 + 8*pairs) = 2m - 1.  No map is built.
    """
    tally = Counter(pairs for _, _, pairs in _later_lines(P, k))
    return {(math.isqrt(1 + 8 * pairs) + 3) // 2: n for pairs, n in tally.items()}


def _rich_map_keys(P: PointSet, k: int):
    """The key of each k-rich map, from its one production, in production order.

    Each production's line t2 = s*t1 + i pulls back as in line_preimage, and
    its lead entry, a or else b, is scaled to 1 here.
    """
    p, inv, exact = P.ctx.p, P.ctx._inv, (k - 1) * (k - 2) // 2
    for (q1, q2), line, pairs in _later_lines(P, k):
        if pairs == exact:
            s, i = divmod(line, p)
            a, b, c, d = (1 - i * q2) % p, (q2 * s + i * q1 * q2 - q1) % p, -i, s + i * q1
            w = inv[a or b]
            yield ((a * w % p * p + b * w % p) * p + c * w % p) * p + d * w % p


def rich_transforms_pivot(P: PointSet, k: int) -> TransformSet:
    """All k-rich maps (k >= 3), enumerated through the pivot reduction.

    Each map is produced once, from its line through exactly k - 1 later
    points, as its key.  Agrees exactly with the full-group brute scan.
    """
    return TransformSet.from_sorted(sorted(_rich_map_keys(P, k)), P.ctx)


class ReductionReport(NamedTuple):
    p: int
    pivots: int
    transforms: int
    triples: int
    violations: int
    line_collisions: int
    det_mismatches: int

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.line_collisions == 0 and self.det_mismatches == 0


def _check_one_pivot(ctx: FieldContext, q: tuple[int, int]) -> tuple[int, int, int, int, int]:
    """Exhaustively check the reduction at one pivot q, reduced mod p here.

    Returns (transforms, triples, violations, line_collisions,
    det_mismatches).  Curved maps through q are parametrized directly:
    c = 1, b forced, (a, d) ranging over a != q2, d != -q1.  A triple is a
    map and one of the (p-1)^2 admissible points (s1 != q1, s2 != q2).

    Each side of the reduction puts at most one admissible point on each
    abscissa s1 != q1, so a map's graph is a sequence of p-1 ordinates,
    with q2 marking an abscissa that carries no admissible point.  The maps
    of one a are checked in one batch: the sequences of all its d, in d
    order, laid end to end, each side built by table lookups alone.

    Curve side: b = q2(q1 + d) - a*q1, so with w = 1/(s1 + d) the value
    f(s1) = (a*s1 + b)*w is (a*alpha + beta) mod p, where alpha =
    (s1 - q1)*w and beta = q2(q1 + d)*w.  This regroups only the arithmetic
    around the inverse lookup, so it equals the literal (a*s1 + b)*w for
    any inverse table.  The keys alpha*p + beta of every (d, s1) are built
    once per pivot, the pole s1 = -d keyed p^2.  Once per a, the table
    aff[alpha*p + beta] = (a*alpha + beta) mod p is laid out from slices of
    range(p) doubled, with aff[p^2] = q2; the curve batch is aff at the
    keys.  An f(s1) equal to q2 is not admissible either.

    Line side: the map (a, d) conjugates to the line t2 = m*t1 + i, with
    m = (q1 + d)/(a - q2) and i = -1/(a - q2), pulled back through the
    transplant (t1, t2) = (1/(q1 - s1), 1/(q2 - s2)): s2 = q2 - 1/t2, which
    is never q2, or q2 where t2 = 0.  Once per pivot, slopes[m] holds the
    m*t1 of every abscissa and pulled[t] the ordinate pulled back from
    t2 = t; once per a, back[v] = pulled[v + i] is a slice of pulled laid
    twice, and the line batch is back at the slopes of every m.

    A point violates the reduction when it lies on one side only.  Where
    the two batches of an a differ, an entry that differs adds 2 when both
    sides hold a point and 1 otherwise: the size of the symmetric
    difference of the graphs.  The transform, line-collision and
    det-mismatch counts are kept per map: a det mismatch is a map whose
    line's pullback, of determinant m, scaled to c = 1 by w = 1/(-i) from
    the inverse table, has m*w^2 != a*d - b.  Nothing comes from the
    enumeration path.  A pivot costs O(p^2) interpreted steps and O(p^3)
    table lookups, so an exhaustive check costs O(p^5).
    """
    p = ctx.p
    inv = ctx._inv
    q1, q2 = q[0] % p, q[1] % p
    xs = [s1 for s1 in range(p) if s1 != q1]
    ds = [d for d in range(p) if (d + q1) % p]
    q1ds = [q1 + d for d in ds]
    t1s = [inv[(q1 - s1) % p] for s1 in xs]
    slopes = [[m * t1 % p for t1 in t1s] for m in range(p)]
    pole = p * p
    keys = []
    for d in ds:
        c = q2 * (q1 + d)
        keys += [
            (s1 - q1) * (w := inv[den]) % p * p + c * w % p if (den := (s1 + d) % p) else pole
            for s1 in xs
        ]
    # itemgetter of a single key returns the entry, not a 1-tuple (p = 2).
    curve_at = itemgetter(*keys) if len(keys) > 1 else lambda aff: (aff[keys[0]],)
    doubled = list(range(p)) * 2
    pulled = [q2] + [(q2 - inv[t]) % p for t in range(1, p)]
    pulled += pulled
    transforms = violations = det_mismatches = 0
    lines_seen = set()
    for a in range(p):
        if a == q2:
            continue
        u = (a - q2) % p
        inv_u = inv[u]
        i = (-inv_u) % p
        ms = [e * inv_u % p for e in q1ds]
        transforms += len(ds)
        # The line t2 = m*t1 + i is keyed i*p + m.
        lines_seen.update(map((i * p).__add__, ms))
        # a*d - b is u*(q1 + d), as b = q2(q1 + d) - a*q1.
        ww = inv[(-i) % p] ** 2
        det_mismatches += sum(1 for m, e in zip(ms, q1ds) if (m * ww - u * e) % p)
        aff = []
        for alpha in range(p):
            r = a * alpha % p
            aff += doubled[r : r + p]
        aff.append(q2)
        curve = curve_at(aff)
        back = pulled[i : i + p]
        line = tuple(map(back.__getitem__, chain.from_iterable(map(slopes.__getitem__, ms))))
        if curve != line:
            violations += sum(1 + (c != q2 and l != q2) for c, l in zip(curve, line) if c != l)
    collisions = transforms - len(lines_seen)
    triples = transforms * (p - 1) ** 2
    return transforms, triples, violations, collisions, det_mismatches


def check_reduction(
    ctx: FieldContext,
    pivots: Optional[list[tuple[int, int]]] = None,
    jobs: int = 1,
) -> ReductionReport:
    """Verify the incidence-preserving reduction over a set of pivots.

    With pivots=None the check is exhaustive: every pivot q in F_p^2, every
    curved transformation through q, every admissible point.  Each map's
    curve graph is compared with its line's pulled-back graph.  At each
    pivot the curve side is looked up in a table aff of (a*alpha + beta)
    mod p at keys alpha*p + beta built once per pivot, the line side in
    tables of slopes and pulled-back ordinates, and the maps of one a are
    compared in one batch (see _check_one_pivot); a pivot costs O(p^3)
    lookups and the exhaustive check O(p^5).  Also checks injectivity of
    the conjugation (no two maps share a line) and that the determinant of
    each line's pullback, scaled to c = 1 through the inverse table,
    matches the determinant a*d - b of its map.  Each
    pivot is one unit of parallel_map, which spreads them over up to jobs
    processes; the per-pivot counts are summed.
    """
    p = ctx.p
    if pivots is None:
        pivots = [(q1, q2) for q1 in range(p) for q2 in range(p)]
    counts = parallel_map(partial(_check_one_pivot, ctx), pivots, jobs)
    totals = (sum(row[i] for row in counts) for i in range(5))
    return ReductionReport(p, len(pivots), *totals)
