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
from itertools import chain, compress, count, repeat
from operator import add, getitem, itemgetter
from typing import NamedTuple, Optional, Union

from .field import PAD, FieldContext, fork_join, parallel_map
from .incidence import PointSet, TransformSet


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


# rich_line_count counts the pairs on each line in time and memory growing as n^2: at
# p = 9973, 2000 random points take 2.1 s and 184 MB, 3000 take 5.1 s and 347 MB.
MAX_LINE_PAIRS = math.comb(2000, 2)


def refuse_line_work(n: int) -> None:
    """Refuse, before it starts, a rich-line count of n points over the limit."""
    if n * (n - 1) // 2 > MAX_LINE_PAIRS:
        raise ValueError(
            f"the rich lines of {n} points need {n * (n - 1) // 2} point pairs, "
            f"over the limit C(2000, 2) = {MAX_LINE_PAIRS}; give at most 2000 points"
        )


def rich_line_count(P: PointSet, j: int) -> int:
    """The number of lines with at least j >= 2 points of P."""
    if j < 2:
        raise ValueError(f"rich lines need a threshold >= 2, got {j}")
    refuse_line_work(len(P))
    least = j * (j - 1) // 2
    return sum(c >= least for c in _line_pairs(P.points, P.ctx).values())


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
# 0.25-0.4 s with --jobs 1 or 2, interpreter start included (Python 3.11,
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


def _joined(parts: list, as_bytes) -> Union[bytes, list]:
    """parts laid end to end, as bytes or as one list."""
    return b"".join(parts) if as_bytes else list(chain.from_iterable(parts))


def _reduction_tables(ctx: FieldContext) -> tuple:
    """The tables of check_reduction that depend on p and the inverse table
    alone, built once per call in O(p^2) work, O(p) of it interpreted:
    (mul, doubled, lines, det_fails, alpha, gamma, scales, lanes), lines
    and det_fails as check_reduction reads them.  alpha[e][t] = (t -
    e)*inv[t] and gamma[t] = t*inv[t] - 1 are 0 at t = 0 and laid out
    twice.  Below p = PAD the tables are bytes, the rows of mul and scales
    256 long, and lanes holds p, 2^15 - p and 2^15 in each lane of a row;
    from p = 257 on they are lists, lanes None."""
    p, inv = ctx.p, ctx._inv
    # Row m of the multiplication table is every m-th entry of range(p) laid
    # p times, so it and the tables looked up in it hold pointers to the p
    # int objects of range(p), not to p^2 new ints once p > 256.
    cycle = list(range(p)) * p
    mul = [[0] * p] + [cycle[: m * p : m] for m in range(1, p)]
    doubled = cycle[: 2 * p]
    del cycle
    # The line of the map at u, e is keyed i*p + m, i = -1/u and m = e/u;
    # its entry at t1 is pulled[m*t1 + i], so scales[u][x] = pulled[x/u + i].
    pulled = ([0] + [-inv[t] % p for t in range(1, p)]) * 2
    if small := p < PAD:
        fill = bytes(256 - p)
        mul, pulled = [bytes(row) for row in mul], bytes(pulled) + fill
    lines, scales, det_fails = set(), [None], 0
    for u in range(1, p):
        inv_u = inv[u]
        i = -inv_u % p
        lines.update(map((i * p).__add__, mul[inv_u][1:]))
        scales.append(mul[inv_u].translate(pulled[i : i + 256]) + fill if small
                      else list(map(pulled[i : i + p].__getitem__, mul[inv_u])))
        # With e = q1 + d, m*w^2 - (a*d - b) is e*(w^2/u - u), as m = e/u
        # and a*d - b = u*e: one test for every d of this u at every pivot.
        det_fails += (inv_u * inv[-i % p] ** 2 - u) % p != 0
    # Column t of alpha, row inv[t] of mul read back from t, laid end to end.
    columns = _joined(mul[:1] + [(mul[inv[t]] * 2)[t + p : t : -1] for t in range(1, p)], small)
    alpha = [columns[e::p] * 2 for e in range(p)]
    del columns
    # doubled[p - 1 + v] is v - 1 mod p.
    gamma = list(map(doubled[p - 1 :].__getitem__, map(getitem, mul, inv)))
    gamma[0] = 0
    gamma *= 2
    lanes = None
    if small:
        n = (p - 1) ** 2
        mul, gamma = [row + fill for row in mul], bytes(gamma)
        lanes = [int.from_bytes(v.to_bytes(2, "little") * n, "little")
                 for v in (p, 2**15 - p, 2**15)]
    return mul, doubled, len(lines), det_fails, alpha, gamma, scales, lanes


def _row_sequences(ctx: FieldContext, q1: int, shared: tuple) -> tuple:
    """The products (q1 + d)*t1, alpha and gamma of row q1, 0 <= q1 < p, one
    entry per (d, s1), d != -q1 and s1 != q1 in order: for each d, one
    lookup of the row's t1 = 1/(q1 - s1) in row q1 + d of mul and two
    slices of each p-only table, around the entry t = e of s1 = q1."""
    p, inv = ctx.p, ctx._inv
    mul, _, _, _, alpha, gamma, _, lanes = shared
    t1s = [inv[(q1 - s1) % p] for s1 in range(p) if s1 != q1]
    at_t1s = bytes(t1s).translate if lanes else itemgetter(*t1s)
    products, alphas, gammas = [], [], []
    for d in range(p):
        if e := (q1 + d) % p:
            products.append(at_t1s(mul[e]))
            alphas += alpha[e][d : d + q1], alpha[e][d + q1 + 1 : d + p]
            gammas += gamma[d : d + q1], gamma[d + q1 + 1 : d + p]
    return tuple(_joined(parts, lanes) for parts in (products, alphas, gammas))


def _check_pivot_row(ctx: FieldContext, shared: tuple, row: tuple) -> list[int]:
    """Exhaustively check the reduction at the pivots (q1, q2), q2 in q2s,
    of the row (q1, q2s): one unit of check_reduction's pool.

    Returns the violations of each pivot, in q2s order, duplicates
    included; q1 and each q2 are reduced mod p here.  shared holds the
    p-only tables of _reduction_tables, which check_reduction builds once
    for all its rows.
    Curved maps through q are parametrized directly: c = 1, b forced, (a, d)
    ranging over a != q2, d != -q1, and are visited by u = a - q2 != 0.  The
    admissible points are the (p-1)^2 points with s1 != q1 and s2 != q2.

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
    (a*s1 + b)*w - q2 for any inverse table.  The row slices alpha and
    gamma from the p-only tables (_row_sequences), the pole s1 = -d holding
    0 in both, so that its entry is 0, no point.

    Line side: the map (a, d) conjugates to the line t2 = m*t1 + i, with
    m = (q1 + d)/u and i = -1/u, pulled back through the transplant
    (t1, t2) = (1/(q1 - s1), 1/(q2 - s2)): s2 - q2 = -1/t2, which is never
    0, or 0 where t2 = 0.  The line sequence is the p-only table scales[u]
    at the row's products (q1 + d)*t1; it does not depend on q2.

    Below p = PAD each sequence is a byte string of 16-bit little-endian
    lanes, one (d, s1) entry a lane: the entry's byte and then the byte
    PAD, which every translate table maps to 0, so that translated strings
    read as integers add lane by lane.  Once per row, each pivot's block,
    its q2*gamma, is one translate of the row's gamma through row q2 of mul,
    and the blocks are compared with each other.  Once per u, A holds
    u*alpha and the line is one translate of the products through
    scales[u].  A pivot's curve equals the line exactly where its block
    equals (line - A) mod p.  Each lane of line + p - A is below 2p, so
    adding 2^15 - p sets the lane's top bit exactly where it is >= p, and
    subtracting p there reduces every lane at once, without a carry into
    the next.  When all the blocks are equal, that difference is compared
    with the one block, and only where they differ is the batch recounted,
    once for every pivot, from A plus the block, reduced the same way.
    When they are not, no difference equals them all, and every batch is
    recounted per pivot.  From p = 257 on each sequence is a list and each
    batch a tuple gathered by itemgetter: the line once per u, and the
    curve once per distinct block and u from aff[alpha*p + g] = (u*alpha +
    g) mod p, laid out once per u, at keys alpha*p + q2*gamma.

    A point violates the reduction when it lies on one side only: an entry
    where the curve and line of a (pivot, u) differ adds 2 when both sides
    hold a point and 1 otherwise, the size of the symmetric difference of
    the graphs.  Nothing comes from the enumeration path.

    A row costs O(p) interpreted steps and O(p^2) work in C and memory for
    its sequences, plus O(p^2) a pivot for its block.  Each u then costs a
    few interpreted steps, a few operations on integers of p^2 lanes and,
    when the blocks are equal and the batch holds, one comparison of p^2
    lanes; from p = 257 on, O(p^2) table lookups a distinct block.  So an
    exhaustive check costs O(p^4) work in C.
    """
    p = ctx.p
    mul, doubled, _, _, _, _, scales, lanes = shared
    q1, q2s = row
    q2s = [q2 % p for q2 in q2s]
    products, alphas, gammas = _row_sequences(ctx, q1 % p, shared)
    pivots = len(q2s)
    if lanes:
        ps, bias, high = lanes
        n = len(products)
        lane = bytearray([0, PAD]) * n

        def packed(entries):
            lane[::2] = entries
            return bytes(lane)

        products, alphas, gammas = map(packed, (products, alphas, gammas))
        blocks = [gammas.translate(mul[q2]) for q2 in q2s]

        def reduced(s):
            return (s - (((s + bias) & high) >> 15) * p).to_bytes(2 * n, "little")

    else:
        at_products = itemgetter(*products)
        alpha_p = itemgetter(*alphas)(range(0, p * p, p))
        at_gamma = itemgetter(*gammas)
        blocks = [list(map(add, alpha_p, at_gamma(mul[q2]))) for q2 in q2s]
    # One block stands for every pivot when all are equal.
    if same := blocks[:1] * pivots == blocks:
        blocks = blocks[:1]
    if not lanes:
        # The curve of a block is its keys gathered from aff.
        blocks = [itemgetter(*block) for block in blocks]
    violations = [0] * len(blocks)
    for u in range(1, p):
        if lanes:
            line = products.translate(scales[u])
            A = int.from_bytes(alphas.translate(mul[u]), "little")
            if same and reduced(int.from_bytes(line, "little") + ps - A) == blocks[0]:
                continue
            line = line[::2]
            curves = (reduced(A + int.from_bytes(block, "little"))[::2] for block in blocks)
        else:
            line = at_products(scales[u])
            aff = []
            for v in range(p):
                r = u * v % p
                aff += doubled[r : r + p]
            curves = (curve_at(aff) for curve_at in blocks)
        for j, curve in enumerate(curves):
            if curve != line:
                violations[j] += sum(
                    1 + (c != 0 and l != 0) for c, l in zip(curve, line) if c != l
                )
    return violations * pivots if same else violations


# From this p on a row of one pivot takes about parallel_map's serial budget
# of 6 ms or longer by itself: 5.7-6.6 ms at p = 89 against 4.7-5.3 ms at
# p = 83, 7.3-8.7 ms at p = 97 and 0.13 s at p = 251 (best of 15
# _check_pivot_row calls, 2-core x86-64, CPython 3.11).  There a serial head could only hold back one row's share
# of the work, a whole pivot at a sampled p = 743, so such rows go straight
# to fork_join.  An exhaustive check stops at p = 53, below it.
FORK_ROWS_P = 89


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

    Every pivot has the same (p-1)^2 curved maps, one for each u = a - q2
    and e = q1 + d, both nonzero, and a triple is a map and one of the
    (p-1)^2 admissible points (s1 != q1, s2 != q2).  The line of (a, d) is
    keyed i*p + m, i = -1/u and m = e/u, so every pivot has the same lines,
    and its line collisions, the maps whose line another map through the
    pivot shares, are the maps less the distinct lines the p-only tables
    count.  A det mismatch is a map whose line's pullback, of determinant
    m, scaled to c = 1 by w = 1/(-i) from the inverse table, has m*w^2 !=
    a*d - b.  That difference is e*(w^2/u - u), so it vanishes for all the
    p - 1 values of e at one u or for none, whatever the inverse table
    holds: the p-only tables count the u where it does not.  Only the
    violations depend on the pivot, and the rows return them.

    The pivots are grouped by q1 mod p, each row keeping its pivots in the
    given order, duplicates included; the exhaustive rows are (q1,
    range(p)).  Each row is one unit of the pool, which spreads the rows
    over up to jobs processes, the caller being one of them.  Below p =
    FORK_ROWS_P the pool is parallel_map, which first runs rows in the
    caller until they outlast its serial budget, so that a check that short
    starts no process; from FORK_ROWS_P on a row outlasts the budget by
    itself, and the rows go straight to fork_join.  The tables that depend
    on p and the inverse table alone (the multiplication table, the curve
    side's alpha and gamma, the line side's table at each u, the number of
    distinct lines and the det test, with their byte forms) are built once
    per call and handed to every row; no cache keeps them past the call.  A
    row slices its own tables from them in O(p) interpreted steps, and then
    checks all its pivots at once for each u (see _check_pivot_row): below
    p = PAD, when its pivots agree on q2*gamma, as for a correct inverse
    table, in one comparison of p^2 16-bit lanes.  So the exhaustive check
    costs O(p^4).  Memory stays O(p^2) per row plus O(p^2) per pivot in the
    row.
    """
    p = ctx.p
    n = p * p if pivots is None else len(pivots)
    refuse_reduction_work(p, n)
    if pivots is None:
        rows = [(q1, range(p)) for q1 in range(p)]
    else:
        grouped: dict[int, list[int]] = {}
        for q1, q2 in pivots:
            grouped.setdefault(q1 % p, []).append(q2)
        rows = list(grouped.items())
    pool = parallel_map if p < FORK_ROWS_P else fork_join
    shared = _reduction_tables(ctx)
    _, _, lines, det_fails, *_ = shared
    violations = sum(map(sum, pool(partial(_check_pivot_row, ctx, shared), rows, jobs)))
    transforms = (p - 1) ** 2
    return ReductionReport(p, n, n * transforms, n * transforms**2, violations,
                           n * (transforms - lines), n * det_fails * (p - 1))
