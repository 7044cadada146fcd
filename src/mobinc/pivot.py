"""Pivot reduction: trading the maps through a point for affine lines.

Fix a pivot q = (q1, q2).  The point (x, y) lies on the map (a, b, c, d)
when c*x*y + d*y - a*x - b = 0.  Through q, b = c*q1*q2 + d*q2 - a*q1, and
for x != q1, y != q2 the condition is linear in the moved point (B, A):

    a*A = c*B + (d + c*q1),  where A = (x - q1)/(y - q2) and B = y*A.

The paper's transplant, which check_reduction (verify-reduction) checks
exhaustively.  Every f through q with c != 0 can be scaled to c = 1, which
forces b = q2(q1 + d) - a*q1.  Conjugating by the two unit-determinant maps
x -> 1/(q2 - x) (outside) and x -> q1 - 1/x (inside) turns f into the
upper-triangular matrix ((q1 + d, -1), (0, a - q2)), i.e. the line
y = ((q1 + d)x - 1)/(a - q2).  Transplanting each point (s1, s2) with
s1 != q1, s2 != q2 to (1/(q1 - s1), 1/(q2 - s2)) preserves incidences
exactly, and the only incidence lost to the two excluded rows is the pivot
itself.  Affine maps (c = 0) through q land on the lines through the
origin, so the maps through q correspond one-to-one to the lines that are
neither vertical nor horizontal.

The a = 1 chart of the same condition, where the enumeration runs.  A map
with a = 1 is the line A = cB + j with j = d + c*q1, which _line_pairs
keys c*p + j, and its key (1, q2*j - q1, c, j - c*q1) needs no rescale.  A
map with a = 0 needs q2 != 0 and is the vertical B = beta != 0; with b = 1
it has c = 1/(-q2*beta) and d = -(beta + q1)*c.  Every other line is a row
or a column: the row y = r is A = B/r (B = 0 when r = 0), and the column
x = s is A = B/q2 + (q1 - s)/q2 (B = s - q1 when q2 = 0).

When pivots move only later points, a map with r points of P shows up at
its t-th point as a line through exactly r - t of them, so each map with
at least j points has exactly one production whose line carries exactly
j - 1 later points.

The walk counts the moved points on each chart line in one of two ways.
A pivot that moves m <= p/2 points counts the m(m-1)/2 point pairs on each
line (_line_pairs).  One that moves more counts in big-int masks with one
bit per line (_chart_levels): each moved point lies on one line of each of
the p slopes and on one vertical, those p + 1 lines are one mask, and a
binary counter of masks adds them all at once.  A dense pivot thus costs a
few operations on p^2-bit integers a point, against m/2 interpreted pair
updates a point for a sparse one.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import partial
from itertools import compress, count, repeat
from operator import add, itemgetter
from typing import NamedTuple, Optional, Union

from .field import PAD, FieldContext, fork_join, parallel_map
from .incidence import PointSet, TransformSet


class NonVertical(NamedTuple):
    slope: int
    intercept: int


class Vertical(NamedTuple):
    x: int


AffineLine = Union[NonVertical, Vertical]


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
        raise ValueError(
            f"the rich lines of {n} points need {n * (n - 1) // 2} point pairs, "
            f"over the limit C(2000, 2) = {MAX_LINE_PAIRS}; give at most 2000 points"
        )


def rich_lines(P: PointSet, j: int) -> tuple[AffineLine, ...]:
    """Lines with at least j >= 2 points of P, by (slope, intercept), verticals last."""
    if j < 2:
        raise ValueError(f"rich lines need a threshold >= 2, got {j}")
    refuse_line_work(len(P))
    p, least = P.ctx.p, j * (j - 1) // 2
    keys = sorted(key for key, c in _line_pairs(P.points, P.ctx).items() if c >= least)
    return tuple(
        NonVertical(*divmod(key, p)) if key < p * p else Vertical(key - p * p) for key in keys
    )


# The pivot enumeration of 200 points: a pivot that moves m points costs
# about m^2/2 steps, or a few p^2-bit mask operations a point once it moves
# more than p/2 points, so the work grows as n^3/6 on sparse sets and more
# slowly on dense ones; the limit counts n^3 whatever p and k.  At k = 3 and
# p = 9973, 200 random points yield 1.3 million maps; beck counts them in
# about 1 s and 25 MB, and the sorted rich-enum listing takes about 3.5 s
# and 105 MB (Python 3.11, shared 2-core machine).
MAX_PIVOT_WORK = 200**3


def refuse_pivot_work(n: int) -> None:
    """Refuse, before it starts, a pivot enumeration of n points over the limit."""
    if n**3 > MAX_PIVOT_WORK:
        raise ValueError(
            f"the pivot enumeration of {n} points needs about {n}^3 = {n**3} "
            f"steps, over the limit 200^3 = {MAX_PIVOT_WORK}; give at most 200 points"
        )


def _pencil_tables(p: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """The masks _chart_levels reads, and the key of each bit.  Bit c*p + j
    of a mask is the line A = cB + j and bit p*p + beta the vertical
    B = beta, as _line_pairs keys them.  base[B] holds the p lines through
    (B, 0), j = -c*B, one bit in each p-bit block c; low[A] the bits j >= A
    of every block; and vertical[B] the vertical through (B, *)."""
    pp = p * p
    # Row s of the multiplication table is every s-th entry of range(p)
    # laid p times: -c*B mod p for every c, at s = -B mod p.
    cycle, starts, base = list(range(p)) * p, range(0, pp, p), []
    for s in (-B % p for B in range(p)):
        packed = bytearray(pp // 8 + 1)
        for i in map(add, starts, cycle[: s * p : s] if s else [0] * p):
            packed[i >> 3] |= 1 << (i & 7)
        base.append(int.from_bytes(packed, "little"))
    blocks = int("1".rjust(p, "0") * p, 2)
    low = [blocks * ((1 << p) - (1 << A)) for A in range(p)]
    vertical = [1 << pp + B for B in range(p)]
    return base, low, vertical, list(range(pp + p))


def _chart_levels(moved, p: int, tables, top: int) -> list[int]:
    """levels[j], j < top: the mask of the lines (see _pencil_tables)
    through more than j of the moved points.

    The p + 1 lines through (B, A) are base[B] with every p-bit block
    rotated by A, plus vertical[B]: the bits the left shift by A carries
    past a block's end come back in through the right shift by p - A.
    Each point's lines are carried up the levels as in a binary counter,
    and the carry stops at the first level that held none of them."""
    base, low, vertical, _ = tables
    levels = [0] * top
    for B, A in moved:
        lines = base[B]
        wrap = lines >> p - A
        lines = wrap ^ (wrap ^ lines << A) & low[A] | vertical[B]
        for j, old in enumerate(levels):
            levels[j] = old | lines
            lines &= old
            if not lines:
                break
    return levels


_BITS = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int, keys):
    """keys[i] for each set bit i of mask, in increasing order of i."""
    return compress(keys, format(mask, "b")[::-1].encode().translate(_BITS))


def _chart_lines(P: PointSet, k: int, listing: bool):
    """(q1, q2, lines) per pivot q that moves at least k - 1 later points,
    from the chart lines through the points moved to q, the lines of the
    rows and columns of P dropped, so that every line left through two or
    more points carries one map (see the module docstring).  With listing, lines are the keys of the lines
    through exactly k - 1 moved points; otherwise a dict m -> the number of
    lines through exactly m >= k - 1 moved points.

    A pivot that moves m > p/2 points counts its lines in masks
    (_chart_levels), a few p^2-bit operations a point, and reads each
    level it needs once; one that moves fewer counts the m(m-1)/2 point
    pairs on each line (_line_pairs).  From p = 13 to p = 397 the masks
    overtake the pairs between m = 0.4p and m = 0.5p; switching at p/2 also
    pays for the tables, built at the first dense pivot of a walk."""
    refuse_pivot_work(len(P))
    if k < 3:
        raise ValueError(f"pivot enumeration needs k >= 3, got {k}")
    ctx, p, inv, pts = P.ctx, P.ctx.p, P.ctx._inv, P.points
    pp = p * p
    row_keys = [inv[r] * p if r else pp for r, n in Counter(y for _, y in pts).items() if n > 1]
    columns = [s for s, n in Counter(x for x, _ in pts).items() if n > 1]
    least = (k - 1) * (k - 2) // 2
    pairs = {m * (m - 1) // 2: m for m in range(2, len(pts))}
    tables = rows = None
    for i, (q1, q2) in enumerate(pts):
        moved = [(y * A % p, A) for x, y in pts[i + 1 :] if x != q1 and y != q2
                 for A in [(x - q1) * inv[(y - q2) % p] % p]]
        if len(moved) < k - 1:
            # No line carries k - 1 of them.
            continue
        w = inv[q2]
        if 2 * len(moved) > p:
            if not tables:
                tables, rows = _pencil_tables(p), sum(1 << key for key in row_keys)
            levels = _chart_levels(moved, p, tables, k if listing else len(moved))
            # A column is one block: the lines of slope w, or the verticals.
            column = sum(1 << ((q1 - s) * w if w else s - q1) % p for s in columns)
            drop = rows | column << (w if w else p) * p
            if listing:
                exact = levels[k - 2] ^ levels[k - 1]
                lines = _set_bits(exact ^ exact & drop, tables[3])
            else:
                at_least = [(level ^ level & drop).bit_count() for level in levels[k - 2 :]]
                lines = {m: n - more for m, n, more in zip(
                    count(k - 1), at_least, at_least[1:] + [0]) if n > more}
        else:
            lines = _line_pairs(moved, ctx)
            for key in row_keys:
                lines.pop(key, None)
            for s in columns:
                lines.pop(w * p + (q1 - s) * w % p if w else pp + (s - q1) % p, None)
            if listing:
                lines = compress(lines, map(least.__eq__, lines.values()))
            else:
                lines = {pairs[v]: n for v, n in Counter(lines.values()).items() if v >= least}
        yield q1, q2, lines


def rich_counts(P: PointSet, k: int) -> dict[int, int]:
    """For each r >= k, the number of maps with at least r points of P.

    These are the lines through exactly r - 1 later points, summed over
    the pivots.  No map is built.
    """
    counts = Counter()
    for _, _, lines in _chart_lines(P, k, listing=False):
        counts.update(lines)
    return {m + 1: n for m, n in sorted(counts.items())}


def rich_transforms_pivot(P: PointSet, k: int) -> TransformSet:
    """All k-rich maps (k >= 3), enumerated through the pivot reduction.

    Each map is produced once, from its line through exactly k - 1 later
    points, as its key.  Agrees exactly with the full-group brute scan.
    """
    p, inv = P.ctx.p, P.ctx._inv
    keys = []
    for q1, q2, lines in _chart_lines(P, k, listing=True):
        # divmod gives (c, j) for A = cB + j and (p, beta) for B = beta.
        keys += [((p + (q2 * j - q1) % p) * p + c) * p + (j - c * q1) % p if c < p
                 else (p + (g := inv[-q2 * j % p])) * p + -(j + q1) * g % p
                 for c, j in map(divmod, lines, repeat(p))]
    keys.sort()
    return TransformSet.from_sorted(keys, P.ctx)


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


# The exhaustive check at p = 53, the largest run the CLI starts, takes about
# 0.3-0.5 s with --jobs 1 or 2, interpreter start included (Python 3.11,
# shared 2-core machine); it took 7 s when the limit was set.  743 is the
# largest prime p with p^3 <= 53^5, so one pivot fits up to p = 743, where
# its tuple batches take about 22 s.
MAX_REDUCTION_WORK = 53**5


def refuse_reduction_work(p: int, pivots: int) -> None:
    """Refuse, before any pivot is drawn or checked, a reduction check of
    that many pivots at p over the limit: each pivot costs about p^3 steps."""
    if pivots * p**3 > MAX_REDUCTION_WORK:
        most = MAX_REDUCTION_WORK // p**3
        hint = (f"check at most {most} pivots at this p with --samples" if most
                else "one pivot at this p is already over the limit; --samples "
                     "checks run up to p = 743")
        raise ValueError(
            f"{pivots} pivots at p={p} need about {pivots * p**3:.2g} "
            f"steps, over the limit 53^5 = {MAX_REDUCTION_WORK}; {hint}"
        )


def _reduction_tables(ctx: FieldContext) -> tuple:
    """The tables of _check_pivot_row that depend on p and the inverse table
    alone, built once per check_reduction call in O(p^2) interpreted steps:
    (mul, doubled, the number of distinct lines of a pivot, tables, pulled).
    Below p = PAD mul and pulled are bytes and tables holds each row of mul
    laid out to 256 bytes; from p = 257 on tables is None."""
    p, inv = ctx.p, ctx._inv
    # Row m of the multiplication table is every m-th entry of range(p) laid
    # p times, so it and the tables looked up in it hold pointers to the p
    # int objects of range(p), not to p^2 new ints once p > 256.
    cycle = list(range(p)) * p
    mul = [[0] * p] + [cycle[: m * p : m] for m in range(1, p)]
    doubled = cycle[: 2 * p]
    del cycle
    # The lines t2 = m*t1 + i of every pivot, keyed i*p + m: i = -1/u and
    # m = e/u over all nonzero u and e.
    lines = set()
    for u in range(1, p):
        inv_u = inv[u]
        lines.update(map(((-inv_u) % p * p).__add__, mul[inv_u][1:]))
    pulled = ([0] + [-inv[t] % p for t in range(1, p)]) * 2
    tables = None
    if p < PAD:
        fill = bytes(256 - p)
        mul = [bytes(row) for row in mul]
        tables = [row + fill for row in mul]
        pulled = bytes(pulled) + fill
    return mul, doubled, len(lines), tables, pulled


def _check_pivot_row(
    ctx: FieldContext, q1: int, q2s, shared: tuple
) -> list[tuple[int, int, int, int, int]]:
    """Exhaustively check the reduction at the pivots (q1, q2), q2 in q2s.

    Returns one (transforms, triples, violations, line_collisions,
    det_mismatches) per pivot, in q2s order, duplicates included; q1 and
    each q2 are reduced mod p here.  shared holds the p-only tables of
    _reduction_tables, which check_reduction builds once for all its rows.
    Curved maps through q are parametrized directly: c = 1, b forced, (a, d)
    ranging over a != q2, d != -q1, and are visited by u = a - q2 != 0.  A
    triple is a map and one of the (p-1)^2 admissible points (s1 != q1,
    s2 != q2).

    Each side of the reduction puts at most one admissible point on each
    abscissa s1 != q1, so a map's graph is a sequence of p-1 ordinates.
    Both sides are shifted by -q2: an entry is s2 - q2, and 0 marks an
    abscissa that carries no admissible point.  The maps of one pivot and
    one u form a sequence of all their d, in d order, laid end to end; the
    row checks the sequences of every pivot at one u in one batch, built
    by table lookups alone.

    Curve side: b = q2(q1 + d) - a*q1, so with w = 1/(s1 + d) the value
    f(s1) = (a*s1 + b)*w less q2 is (u*alpha + q2*gamma) mod p, where alpha
    = (s1 - q1)*w and gamma = (s1 + d)*w - 1, which is 0 for a correct
    inverse table.  This regroups only the arithmetic around the inverse
    lookup (gamma is alpha + (q1 + d)*w - 1), so it equals the literal
    (a*s1 + b)*w - q2 for any inverse table.  Once per row, alpha and gamma of every (d, s1) are built, the
    pole s1 = -d getting alpha = gamma = 0, so that its entry is 0, no
    point.

    Line side: the map (a, d) conjugates to the line t2 = m*t1 + i, with
    m = (q1 + d)/u and i = -1/u, pulled back through the transplant
    (t1, t2) = (1/(q1 - s1), 1/(q2 - s2)): s2 - q2 = -1/t2, which is never
    0, or 0 where t2 = 0.  Once per row, the products (q1 + d)*t1 of every
    (d, s1) are built; pulled[t], one of the p-only tables, holds the entry
    pulled back from t2 = t, laid twice.  Neither depends on q2, so the line
    sequence of every pivot at one u is the same: back[v] = pulled[v + i] is a slice,
    scale[x] = back[x/u] is back at a row of the multiplication table mul,
    and the line sequence is scale at the products, as m*t1 = (q1 + d)*t1/u.

    Below p = PAD each sequence is a byte string of 16-bit little-endian
    lanes, one (d, s1) entry a lane: the entry's byte and then the byte
    PAD, which every translate table maps to 0, so that translated strings
    read as integers add lane by lane.  Once per row, G lays every
    pivot's q2*gamma end to end, one bytes.translate of the row's gamma
    bytes through row q2 of mul a pivot.  Once per u, A holds u*alpha, one
    translate of the row's alpha bytes through row u of mul, and the line
    sequence is one translate of the products through scale.  Every lane
    holds a residue, so a pivot's curve equals the line exactly where its
    q2*gamma equals (line - A) mod p.  Each lane of line + p - A is below
    2p, so adding 2^15 - p sets the lane's top bit exactly where it is
    >= p, and subtracting p there reduces every lane at once, without a
    carry into the next.  The difference, repeated once a pivot, is
    compared with G once; only where they differ is the batch split per
    pivot, each pivot's curve being A plus its q2*gamma, reduced the same
    way.  From p = 257 on each sequence is a tuple gathered by itemgetter:
    the line once per u, and the curve once per (pivot, u) from
    aff[alpha*p + g] = (u*alpha + g) mod p, laid out once per u from
    slices of range(p) doubled, at keys alpha*p + q2*gamma built once per
    pivot.

    A point violates the reduction when it lies on one side only.  Where
    the curve and line sequences of a (pivot, u) differ, an entry that
    differs adds 2 when both sides hold a point and 1 otherwise: the size
    of the symmetric difference of the graphs.  A line collision is a map
    whose line another map through its pivot shares.  With e = q1 + d, the
    line of (a, d) has i = -1/u and m = e/u; at every pivot u and e range
    over the nonzero residues, so the lines, keyed i*p + m, are the same
    set at every pivot: the p-only tables hold its size, and every pivot has
    the same collision count.
    A det mismatch is a map whose line's pullback, of determinant m, scaled
    to c = 1 by w = 1/(-i) from the inverse table, has m*w^2 != a*d - b.
    That difference is e*(w^2/u - u), so it vanishes for all the d of one
    u or for none, whatever the inverse table holds; the test runs once
    per (row, u) and counts for every pivot.  Nothing comes from the
    enumeration path.

    A row costs O(p^2) interpreted steps and memory for its tables, O(1)
    more per pivot and O(p) more per u.  Below p = PAD each (row, u) costs a
    few interpreted steps, a few operations on integers of p^2 lanes and
    one comparison of p^2 lanes a pivot; from p = 257 on, O(p^2) table
    lookups a pivot.  So an exhaustive check costs O(p^5) work in C.
    Memory stays O(p^2) per row plus O(p^2) per pivot in the row.
    """
    p = ctx.p
    inv = ctx._inv
    mul, doubled, lines, tables, pulled = shared
    q1 %= p
    q2s = [q2 % p for q2 in q2s]
    xs = [s1 for s1 in range(p) if s1 != q1]
    ds = [d for d in range(p) if (d + q1) % p]
    transforms = (p - 1) * len(ds)
    collisions = transforms - lines
    t1s = [inv[(q1 - s1) % p] for s1 in xs]
    products = [mul[(q1 + d) % p][t1] for d in ds for t1 in t1s]
    alphas, units = [], []
    for d in ds:
        for s1 in xs:
            if den := (s1 + d) % p:
                w = inv[den]
                alphas.append(mul[(s1 - q1) % p][w])
                units.append(mul[den][w])
            else:
                alphas.append(0)
                units.append(1)
    # gamma = (s1 + d)*w - 1, doubled[p - 1 + v] being v - 1 mod p; the
    # pole's unit 1 makes it 0 there.
    gammas = list(map(doubled[p - 1 :].__getitem__, units))
    del units
    pivots = len(q2s)
    if lanes := tables is not None:
        n = len(products)
        fill = bytes(256 - p)
        lane = bytearray([0, PAD]) * n

        def packed(entries):
            lane[::2] = entries
            return bytes(lane)

        products, alphas, gammas = map(packed, (products, alphas, gammas))
        G = b"".join(gammas.translate(tables[q2]) for q2 in q2s)
        ps = int.from_bytes(p.to_bytes(2, "little") * n, "little")
        bias = int.from_bytes((2**15 - p).to_bytes(2, "little") * n, "little")
        high = int.from_bytes(b"\0\x80" * n, "little")

        def reduced(s):
            return (s - (((s + bias) & high) >> 15) * p).to_bytes(2 * n, "little")

    else:
        at_products = itemgetter(*products)
        alpha_p = [alpha * p for alpha in alphas]
        at_gamma = itemgetter(*gammas)
        curve_ats = [itemgetter(*map(add, alpha_p, at_gamma(mul[q2]))) for q2 in q2s]
    violations = [0] * pivots
    det_fails = 0
    for u in range(1, p):
        inv_u = inv[u]
        i = (-inv_u) % p
        # With e = q1 + d, m*w^2 - (a*d - b) is e*(w^2/u - u), as m = e/u
        # and a*d - b = u*e: one test for every d of this u at every pivot.
        if (inv_u * inv[(-i) % p] ** 2 - u) % p:
            det_fails += 1
        if lanes:
            line = products.translate(mul[inv_u].translate(pulled[i : i + 256]) + fill)
            A = int.from_bytes(alphas.translate(tables[u]), "little")
            if reduced(int.from_bytes(line, "little") + ps - A) * pivots == G:
                continue
            line = line[::2]
            curves = (reduced(A + int.from_bytes(G[k : k + 2 * n], "little"))[::2]
                      for k in range(0, len(G), 2 * n))
        else:
            back = pulled[i : i + p]
            line = at_products(list(map(back.__getitem__, mul[inv_u])))
            aff = []
            for alpha in range(p):
                r = u * alpha % p
                aff += doubled[r : r + p]
            curves = (curve_at(aff) for curve_at in curve_ats)
        for j, curve in enumerate(curves):
            if curve != line:
                violations[j] += sum(
                    1 + (c != 0 and l != 0) for c, l in zip(curve, line) if c != l
                )
    triples = transforms * (p - 1) ** 2
    det_mismatches = det_fails * len(ds)
    return [
        (transforms, triples, violation, collisions, det_mismatches)
        for violation in violations
    ]


# From this p on a row of one pivot takes longer than parallel_map's serial
# budget of 6 ms by itself: 5.6-8.9 ms at p = 79, 4.5-6.5 ms at p = 71 and
# 0.26 s at p = 251 (best of 15 _check_pivot_row calls, 2-core x86-64,
# CPython 3.11).  There a serial head could only hold back one row's share
# of the work, a whole pivot at a sampled p = 743, so such rows go straight
# to fork_join.  An exhaustive check stops at p = 53, below it.
FORK_ROWS_P = 79


def _check_row(ctx: FieldContext, shared: tuple, row: tuple) -> list[tuple[int, ...]]:
    """One unit of check_reduction's pool: a (q1, q2s) row."""
    return _check_pivot_row(ctx, *row, shared)


def check_reduction(
    ctx: FieldContext,
    pivots: Optional[list[tuple[int, int]]] = None,
    jobs: int = 1,
) -> ReductionReport:
    """Verify the incidence-preserving reduction over a set of pivots.

    With pivots=None the check is exhaustive: every pivot q in F_p^2, every
    curved transformation through q, every admissible point.  Each map's
    curve graph is compared with its line's pulled-back graph.  Also checks
    injectivity of the conjugation (no two maps share a line) and that the
    determinant of each line's pullback, scaled to c = 1 through the
    inverse table, matches the determinant a*d - b of its map.

    The pivots are grouped by q1 mod p, each row keeping its pivots in the
    given order, duplicates included, and each row is one unit of the pool,
    which spreads the rows over up to jobs processes, the caller being one
    of them.  Below p = FORK_ROWS_P the pool is parallel_map, which first
    runs rows in the caller until they outlast its serial budget, so that a
    check that short starts no process; from FORK_ROWS_P on a row outlasts
    the budget by itself, and the rows go straight to fork_join.  The
    tables that depend on p and the inverse table alone (the multiplication
    table, the pulled-back line entries and the number of distinct lines,
    with their byte forms) are built once per call and handed to every row;
    no cache keeps them past the call.  A row
    builds its own tables once, in O(p^2) interpreted steps and memory, and
    then checks all its pivots at once for each u = a - q2, both sides
    shifted by -q2 so that the line side depends on the row and u alone
    (see _check_pivot_row).  Below p = PAD each (row, u) costs a few
    interpreted steps, a few operations on integers of p^2 16-bit lanes and
    one comparison of p^2 lanes a pivot; from p = 257 on, O(p^2) table
    lookups into tuples a pivot.  So the exhaustive check costs O(p^5).
    Memory stays O(p^2) per row plus O(p^2) per pivot in the row.  The
    per-pivot counts are summed.
    """
    p = ctx.p
    refuse_reduction_work(p, p * p if pivots is None else len(pivots))
    if pivots is None:
        pivots = [(q1, q2) for q1 in range(p) for q2 in range(p)]
    rows: dict[int, list[int]] = {}
    for q1, q2 in pivots:
        rows.setdefault(q1 % p, []).append(q2)
    pool = parallel_map if p < FORK_ROWS_P else fork_join
    shared = _reduction_tables(ctx)
    counts = pool(partial(_check_row, ctx, shared), list(rows.items()), jobs)
    totals = (sum(pivot[i] for row in counts for pivot in row) for i in range(5))
    return ReductionReport(p, len(pivots), *totals)
