"""Point, scalar and transformation sets, incidence counting and richness.

Incidences are affine-only: a point (x, y) in F_p^2 lies on a map f when
f(x) = y with x not a pole of f.  A pole maps to infinity, which is never an
affine point, so it can never contribute an incidence.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from itertools import chain, combinations, compress, groupby, repeat
from operator import add, itemgetter
from typing import Iterable, Iterator

from .field import PAD, FieldContext, graph_tables, group_order, key_entries, same_context


class SortedSet:
    """Distinct, reduced members over one field, kept as one sorted tuple.

    The fixed order keeps downstream enumeration output reproducible.
    Membership is a bisect of the tuple, and a value that does not compare
    with the members is not one.  Subclasses expose the tuple under their
    own public name.
    """

    __slots__ = ("ctx", "_items")

    def __init__(self, members: Iterable, ctx: FieldContext):
        self.ctx = ctx
        self._items = tuple(sorted(members))

    @classmethod
    def from_sorted(cls, items: Iterable, ctx: FieldContext):
        """The set of the given members, already reduced, sorted and distinct."""
        S = object.__new__(cls)
        S.ctx = ctx
        S._items = tuple(items)
        return S

    def __len__(self):
        return len(self._items)

    def __iter__(self) -> Iterator:
        return iter(self._items)

    def __contains__(self, member):
        items = self._items
        try:
            i = bisect_left(items, member)
        except TypeError:
            return False
        return i < len(items) and items[i] == member

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ctx.p == other.ctx.p and self._items == other._items

    def __repr__(self):
        return f"{type(self).__name__}({len(self)} members; p={self.ctx.p})"


class PointSet(SortedSet):
    """Affine points, reduced mod p and iterated in lexicographic order."""

    __slots__ = ()
    points = SortedSet._items

    def __init__(self, points: Iterable[tuple[int, int]], ctx: FieldContext):
        p = ctx.p
        super().__init__({(x % p, y % p) for x, y in points}, ctx)


class ScalarSet(SortedSet):
    """Field elements, reduced mod p and iterated in increasing order."""

    __slots__ = ()
    values = SortedSet._items

    def __init__(self, values: Iterable[int], ctx: FieldContext):
        p = ctx.p
        super().__init__({v % p for v in values}, ctx)


class Entries:
    """The canonical entries a, b, c, d of one map, as iterating a
    TransformSet yields them."""

    __slots__ = ("a", "b", "c", "d")


class TransformSet(SortedSet):
    """Moebius maps over one field, stored as the sorted tuple of their keys.

    A key is a map's canonical entries as the integer ((a*p + b)*p + c)*p + d
    (field.canonical_key), so the sorted keys are the canonical tuple order,
    and equality, size and membership work on the keys alone.  Iteration
    yields each map's Entries, decoded by key_entries; nothing decoded is
    kept.
    """

    __slots__ = ()
    keys = SortedSet._items

    def __init__(self, keys: Iterable[int], ctx: FieldContext):
        super().__init__(set(keys), ctx)

    def __iter__(self) -> Iterator[Entries]:
        p = self.ctx.p
        for key in self._items:
            f = Entries()
            f.a, f.b, f.c, f.d = key_entries(key, p)
            yield f


def columns(points) -> list[tuple[int, frozenset]]:
    """The points (x, y), sorted by x, grouped as (x, set of their y)."""
    return [(x, frozenset(y for _, y in col)) for x, col in groupby(points, itemgetter(0))]


def incidences_of(key: int, cols, ctx: FieldContext) -> int:
    """Number of points on the map with this key (field.canonical_key),
    given as columns (x, ordinates): y = (ax + b)/(cx + d) mod p, x not a
    pole.

    The one incidence loop and the one incidence test: count_incidences
    counts through it on points at fewer than CUT abscissae and from
    p = 257 on, and the pointwise references of the tests always do.  A
    map has at most one affine point per abscissa, so each column costs
    one evaluation.  The pole guard matters: inv[0] is 0, so without it a
    pole x would count a point (x, 0).
    """
    p, inv = ctx.p, ctx._inv
    a, b, c, d = key_entries(key, p)
    n = 0
    for x, ys in cols:
        den = (c * x + d) % p
        if den and (a * x + b) * inv[den] % p in ys:
            n += 1
    return n


# From this many distinct abscissae on, below p = PAD, count_incidences reads
# the maps' graph tables; with fewer, building the tables costs more than the
# incidences_of walks.  On 150 and 2000 random maps at p in {13, 43, 101, 251}
# (CPython 3.11, shared 2-core Xeon) the tables took 1.3-2.6 times the walks'
# time at 4 abscissae, 0.8-1.8 at 8, 0.6-1.2 at 12 and 0.3-0.8 at 24.
CUT = 12


# One column test per map and distinct abscissa of the points.  From p = 257
# on, count_incidences of 2000 random points and 2000 random maps at p = 9973
# (1640 distinct abscissae) takes about 1 s on one core under CPython 3.11,
# and 2000^2 tests about 1.2 s; below p = 255 the graph tables count the 251
# columns of the full grid of F_251 against 15936 maps (4*10^6 tests) in 0.07 s.
MAX_INCIDENCE_PAIRS = 2000**2


def refuse_incidence_work(maps: int, abscissae: int) -> None:
    """Refuse, before it starts, an incidence count over the limit on column tests."""
    if maps * abscissae > MAX_INCIDENCE_PAIRS:
        raise ValueError(
            f"the incidences of {maps} maps and points at up to {abscissae} distinct "
            f"abscissae need up to {maps * abscissae} column tests, over the limit "
            f"2000^2 = {MAX_INCIDENCE_PAIRS}; give fewer points or maps"
        )


def count_incidences(P: PointSet, T: TransformSet) -> int:
    """I(P, T): number of pairs (point, map) with the point on the map.

    Below p = PAD, on points at CUT or more distinct abscissae, the graph
    tables (field.graph_tables) of up to 4096 maps are joined into one blob,
    so that every 256th byte from x is the image of x under each map; one
    bytes.translate through the column's indicator (1 at its ordinates)
    and one count give the column's incidences with all of them.  That is
    |T| table builds and three C-speed passes over |T| bytes a column.
    Otherwise it sums incidences_of: |T| times the number of distinct
    abscissae of P, at most |T| * min(|P|, p), Python evaluations.
    """
    same_context(P.ctx, T.ctx)
    ctx, cols = P.ctx, columns(P.points)
    refuse_incidence_work(len(T), len(cols))
    if ctx.p >= PAD or len(cols) < CUT:
        return sum(incidences_of(key, cols, ctx) for key in T.keys)
    marks = []
    for x, ys in cols:
        mark = bytearray(256)
        for y in ys:
            mark[y] = 1
        marks.append((x, mark))
    keys, n = T.keys, 0
    # 4096 tables keep the blob at 1 MB for any |T|.
    for i in range(0, len(keys), 4096):
        graphs = b"".join(graph_tables(keys[i:i + 4096], ctx))
        n += sum(graphs[x::256].translate(mark).count(1) for x, mark in marks)
    return n


def _lines_from_pairs(off_axis, p: int, inv):
    """rich(a, b, need): the keys c*p + d of the lines v = cx + d through
    at least need >= 1 of the points (x, (ax + b)/y), for (x, 1/y) in
    off_axis, counted from the point pairs on each line: about m^2/2 steps
    a row for m points.  For need = 1 they are the p lines of each point.

    Two points with distinct abscissae lie on one line, whose slope and
    intercept are linear in (a, b): those of row (1, 0) times a plus those
    of row (0, 1) times b.  Two points with one abscissa lie on no common
    line.  A line through n points holds n(n - 1)/2 pairs.
    """
    lines = []
    for (x1, i1), (x2, i2) in combinations(off_axis, 2):
        if x1 != x2:
            w = inv[(x2 - x1) % p]
            c = (x2 * i2 - x1 * i1) * w % p
            e = (i2 - i1) * w % p
            lines.append((c, (x1 * i1 - c * x1) % p, e, (i1 - e * x1) % p))

    def rich(a, b, need):
        if need == 1:
            vs = [(x, (a * x + b) * iy % p) for x, iy in off_axis]
            return {c * p + (v - c * x) % p for x, v in vs for c in range(p)}
        least = need * (need - 1) // 2
        if a:
            votes = Counter([(c + b * e) % p * p + (d + b * h) % p for c, d, e, h in lines])
        else:  # the block (0, 1), whose lines are those of row (0, 1)
            votes = Counter([e * p + h for _, _, e, h in lines])
        return [key for key, n in votes.items() if n >= least]

    return rich


_BITS = bytes.maketrans(b"01", b"\0\1")


def _lines_from_bits(off_axis, p: int):
    """rich(a, b, need): the keys c*p + d of the lines v = cx + d through
    at least need >= 1 of the points (x, (ax + b)/y), for (x, 1/y) in
    off_axis, counted in masks whose bit c*p + d is that line: a few
    operations on p^2-bit integers a point, and one read of p^2 bits a row.

    The tables are built once: base[x] holds the p lines through (x, 0),
    d = -cx, one bit in each p-bit block c, and low[v] the bits d >= v of
    every block.  The lines through (x, v) are base[x] with every block
    rotated by v: the bits the left shift by v carries past a block's end
    come back in through the right shift by p - v.  levels[j], j < need,
    holds the lines through more than j of the points, so the last level
    holds the lines asked for; each point's lines are carried up the levels
    as in a binary counter, and the carry stops at the first level that
    held none of them.
    """
    pp = p * p
    # Row s of the multiplication table is every s-th entry of range(p)
    # laid p times: -c*x mod p for every c, at s = -x mod p.
    cycle, starts, base = list(range(p)) * p, range(0, pp, p), []
    for s in (-x % p for x in range(p)):
        packed = bytearray(pp // 8 + 1)
        for i in map(add, starts, cycle[: s * p : s] if s else [0] * p):
            packed[i >> 3] |= 1 << (i & 7)
        base.append(int.from_bytes(packed, "little"))
    blocks = int("1".rjust(p, "0") * p, 2)
    low = [blocks * ((1 << p) - (1 << v)) for v in range(p)]
    keys = list(range(pp))

    def rich(a, b, need):
        levels = [0] * need
        for x, iy in off_axis:
            v = (a * x + b) * iy % p
            lines = base[x]
            wrap = lines >> p - v
            lines = wrap ^ (wrap ^ lines << v) & low[v]
            for j, old in enumerate(levels):
                levels[j] = old | lines
                lines &= old
                if not lines:
                    break
        return compress(keys, format(levels[-1], "b")[::-1].encode().translate(_BITS))

    return rich


# The group scan of 200 points at p = 547, about 4 s: the largest one the
# CLI starts.  For m points off the axis y = 0 the scan takes about
# p*min(m(m-1)/2, p*m) steps, plus about 16 steps' worth of its own for each
# of its p + 1 rows: the rows set the time of scans of a few points at a
# large p (2 points at p = 200003 take 4.6 us a row, and one point pair in a
# row about 0.35 us).
MAX_BRUTE_WORK = 547 * (math.comb(200, 2) + 16)
# The most maps the pivot limit lets rich-enum list: C(200, 3) = 1313400.
MAX_BRUTE_LISTING = math.comb(200, 3)


def refuse_scan_work(P: PointSet, k: int) -> None:
    """Refuse, before it starts, a group scan of P at k over its steps or listing."""
    n, p, m = len(P), P.ctx.p, sum(1 for _, y in P.points if y)
    work = p * (min(m * (m - 1) // 2, p * m) + 16)
    if work > MAX_BRUTE_WORK:
        raise ValueError(
            f"the group scan of {n} points at p={p}, m={m} of them off the axis "
            f"y = 0, needs about p*(min(m(m-1)/2, p*m) + 16) = {work} steps, over "
            f"the limit 547*(C(200,2) + 16) = {MAX_BRUTE_WORK}; enumerate with "
            f"--method pivot"
        )
    # It keeps every map through k points: p(p-1) maps pass through one
    # point, p-1 through two and at most one through three.
    through = (n * p * (p - 1) if k == 1 else
               math.comb(n, 2) * (p - 1) if k == 2 else math.comb(n, 3))
    listing = min(group_order(p), through)
    if k >= 1 and listing > MAX_BRUTE_LISTING:
        raise ValueError(
            f"the group scan of {n} points at p={p} and k={k} may list {listing} "
            f"maps, over the limit C(200,3) = {MAX_BRUTE_LISTING}; give fewer points"
        )


def rich_transforms_brute(P: PointSet, k: int) -> TransformSet:
    """All maps with at least k points of P on them, by scanning PGL(2, p).

    The oracle for the pivot enumeration; it shares no code with the pivot
    reduction.  It walks the whole group one row (a, b, *, *) at a time: the
    rows (1, b) and the block (0, 1).  In a row, a point (x, y) with y != 0
    lies on the map (a, b, c, d) iff the point (x, v), v = (ax + b)/y, lies
    on the line v = cx + d, and the map is nonsingular.  So each row is a
    line problem over the m points off the axis y = 0.  With m <= p/2 it
    is solved from the point pairs on each line, m^2/2 interpreted steps a
    row.  With more it is solved in masks with one bit per line, each
    point's p lines one mask: a few p^2-bit integer operations a point and
    one read of p^2 bits a row.  From p = 13 to p = 397 the masks overtake
    the pairs near m = p/2.
    """
    refuse_scan_work(P, k)
    if k < 1:
        raise ValueError(f"the full-group scan needs k >= 1, got {k}")
    ctx = P.ctx
    p, inv = ctx.p, ctx._inv
    pp = p * p
    off_axis = [(x, inv[y]) for x, y in P.points if y]
    on_axis = {x for x, y in P.points if not y}
    m = len(off_axis)
    if 2 * m > p:
        rich = _lines_from_bits(off_axis, p)
    else:
        rich = _lines_from_pairs(off_axis, p, inv)
    keys = []
    for a, b in chain(zip(repeat(1), range(p)), [(0, 1)]):
        # (-b, 0) lies on every nonsingular map of row (1, b); no point of
        # the axis lies on a map of the block.  Every point at x = -b goes
        # to (-b, 0), on the singular lines d = bc only.  So a row that
        # needs more than the m points off the axis holds no rich map.
        need = k - (a == 1 and (-b) % p in on_axis)
        if need > m:
            continue
        lines = rich(a, b, need) if need > 0 else range(pp)
        # The map (a, b, c, d) has the key row + c*p + d; keep ad - bc != 0.
        row = (a * p + b) * pp
        keys.extend(row + key for key in lines if (a * key - b * (key // p)) % p)
    keys.sort()
    return TransformSet.from_sorted(keys, ctx)
