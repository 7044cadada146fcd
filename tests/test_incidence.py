"""Incidence counting, richness, and the full-group scan."""

import random
from collections import Counter
from itertools import chain, product
from operator import add

import pytest

from mobinc import energy as energy_module
from mobinc import field, incidence
from mobinc.energy import energy, energy_brute
from mobinc.field import FieldContext, class_key, group_order, key_entries
from mobinc.incidence import (
    CUT,
    PointSet,
    ScalarSet,
    TransformSet,
    _lines_from_bits,
    _lines_from_pairs,
    columns,
    count_incidences,
    incidences_of,
    rich_transforms_brute,
)
from mobinc.pivot import ReductionReport, check_reduction, rich_transforms_pivot

from reference import (INFINITY, MoebiusMap, entries, enumerate_group, identity, keyed, lies_on,
                       maps_of, richness)

CTX5 = FieldContext(5)
CTX7 = FieldContext(7)


def diagonal(ctx):
    return PointSet([(x, x) for x in range(ctx.p)], ctx)


def random_points(ctx, n, seed):
    rng = random.Random(seed)
    p = ctx.p
    return PointSet(
        [(v // p, v % p) for v in rng.sample(range(p * p), n)], ctx
    )


def test_pointset_dedup_reduce_order():
    P = PointSet([(6, 6), (1, 2), (1, 7), (1, 1)], CTX5)
    assert P.points == ((1, 1), (1, 2))
    assert len(P) == 2
    assert (1, 1) in P and (0, 0) not in P


# Each set type: its members over F_p, values of other types, and the member
# that an item of its iteration stands for.
_SET_TYPES = {
    PointSet: (lambda ctx: list(product(range(ctx.p), repeat=2)),
               lambda ctx: [None, 3, "x", (1,), (1, "x"), (0, 0, 0)],
               lambda s, p: s),
    ScalarSet: (lambda ctx: list(range(ctx.p)),
                lambda ctx: [None, "x", (1, 2), 1.5, True, -1, ctx.p],
                lambda v, p: v),
    TransformSet: (lambda ctx: [f.key() for f in enumerate_group(ctx)],
                   lambda ctx: [None, 1, "x", (1, 0, 0, 1), 1.5, -1, ctx.p**4,
                                identity(ctx)],
                   lambda f, p: ((f.a * p + f.b) * p + f.c) * p + f.d),
}


@pytest.mark.parametrize("p", [7, 31])
@pytest.mark.parametrize("cls", list(_SET_TYPES), ids=lambda cls: cls.__name__)
def test_sorted_set_contract(cls, p):
    """Bisect membership matches a frozenset, from_sorted matches the
    sorting constructor, and sets of different types are never equal."""
    ctx = FieldContext(p)
    universe, foreign, member = _SET_TYPES[cls]
    universe = universe(ctx)
    rng = random.Random(p)
    members = rng.sample(universe, len(universe) // 3)
    S = cls(members + members[::2], ctx)
    reference = frozenset(members)
    assert len(S) == len(reference)
    assert [u in S for u in universe] == [u in reference for u in universe]
    assert [v in S for v in foreign(ctx)] == [v in reference for v in foreign(ctx)]
    assert cls.from_sorted(sorted(reference), ctx) == S
    assert [member(u, p) for u in cls.from_sorted(sorted(reference), ctx)] == sorted(reference)
    for other in _SET_TYPES:
        if other is not cls:
            assert other.from_sorted(S._items, ctx) != S
            assert other([], ctx) != cls([], ctx)
    assert cls([], FieldContext(5)) != cls([], ctx)


def test_transformset_dedup_and_order():
    f = MoebiusMap(3, 0, 1, 4, CTX7)
    g = MoebiusMap(6, 0, 2, 8, CTX7)  # same class
    T = TransformSet([f.key(), g.key(), identity(CTX7).key()], CTX7)
    assert len(T) == 2
    assert [(h.a, h.b, h.c, h.d) for h in T] == entries(T) == [(1, 0, 0, 1), (1, 0, 5, 6)]


@pytest.mark.parametrize("p", [5, 7, 11])
def test_map_keys_over_the_whole_group(p):
    ctx = FieldContext(p)
    group = list(enumerate_group(ctx))
    for f in group:
        assert MoebiusMap.from_key(f.key(), ctx) == f
        assert key_entries(f.key(), p) == f.as_tuple()
    assert sorted(group, key=MoebiusMap.key) == sorted(group, key=MoebiusMap.as_tuple)
    whole = TransformSet.from_sorted(sorted(f.key() for f in group), ctx)
    assert whole == keyed(reversed(group), ctx) and len(whole) == len(group)
    assert all(f.key() in whole for f in group)
    rng = random.Random(p)
    for size in (1, 9, 24):
        maps = rng.sample(group, size)
        T = TransformSet.from_sorted(sorted(f.key() for f in maps), ctx)
        assert T == keyed(maps, ctx) and maps_of(T) == sorted(maps, key=MoebiusMap.as_tuple)
        assert [f.key() in T for f in group] == [f in maps for f in group]
        assert energy(T) == energy_brute(T)
    for n in (1, p, 2 * p):
        P = random_points(ctx, n, n)
        assert count_incidences(P, whole) == sum(richness(f, P) for f in group) == n * p * (p - 1)


def test_lies_on_examples():
    assert lies_on((2, 2), identity(CTX5))
    recip = MoebiusMap(0, 1, 1, 0, CTX5)
    assert not lies_on((0, 0), recip)  # pole contributes no incidence
    f = MoebiusMap(3, 0, 1, 4, CTX7)  # 3x/(x+4)
    assert lies_on((2, 1), f)


def test_count_incidences_examples():
    assert count_incidences(PointSet([], CTX5), keyed([identity(CTX5)], CTX5)) == 0
    assert count_incidences(diagonal(CTX5), keyed([identity(CTX5)], CTX5)) == 5
    grid = PointSet(product(range(5), repeat=2), CTX5)
    recip = keyed([MoebiusMap(0, 1, 1, 0, CTX5)], CTX5)
    assert count_incidences(grid, recip) == 4
    with pytest.raises(ValueError, match="mixed moduli 5 and 7"):
        count_incidences(grid, TransformSet([], CTX7))


def test_richness_examples():
    assert richness(identity(CTX5), diagonal(CTX5)) == 5
    assert richness(identity(CTX5), PointSet([], CTX5)) == 0
    f = MoebiusMap(3, 0, 1, 4, CTX7)
    P = PointSet([(1, 2), (2, 1), (0, 0)], CTX7)
    assert richness(f, P) == 3


def test_richness_sums_to_incidences():
    rng = random.Random(3)
    members = list(enumerate_group(CTX7))
    for seed in range(5):
        P = random_points(CTX7, 12, seed)
        T = keyed(rng.sample(members, 15), CTX7)
        assert sum(richness(f, P) for f in maps_of(T)) == count_incidences(P, T)
        assert count_incidences(P, T) <= min(len(P) * len(T), 7 * len(T))
    # The shared kernel against an independent per-point predicate, on a
    # set that meets every pole abscissa, over every map (affine ones too).
    def on_graph(x, y, f):
        den = (f.c * x + f.d) % 5
        return den != 0 and (y * den - f.a * x - f.b) % 5 == 0

    grid = PointSet(product(range(5), repeat=2), CTX5)
    for P in (grid, random_points(CTX5, 9, 0)):
        for f in enumerate_group(CTX5):
            assert richness(f, P) == sum(on_graph(x, y, f) for x, y in P)
            assert all(lies_on(s, f) == on_graph(*s, f) for s in P)


def test_rich_transforms_brute_examples():
    assert len(rich_transforms_brute(PointSet([], CTX5), 3)) == 0
    assert entries(rich_transforms_brute(diagonal(CTX5), 3)) == [(1, 0, 0, 1)]
    P = PointSet([(1, 2), (2, 1), (0, 0)], CTX7)
    assert entries(rich_transforms_brute(P, 3)) == [(1, 0, 5, 6)]


def _scan_reference(P):
    """The literal group scan: every class of PGL(2, p) tried on every
    abscissa through incidences_of, giving each map's richness."""
    cols = columns(P.points)
    return {f: incidences_of(f.key(), cols, P.ctx)
            for f in enumerate_group(P.ctx)}


def _incidences_per_point(key, points, p):
    """The kernel as it was: every point (x, y) tested by y(cx + d) = ax + b
    with cx + d != 0."""
    a, b, c, d = key_entries(key, p)
    return sum(1 for x, y in points
               if (c * x + d) % p and (y * (c * x + d) - a * x - b) % p == 0)


def _reference_sets(ctx, T):
    """The full grid, AP grids with many points per abscissa, random sets of
    fewer than p points, and sets holding (pole, 0) for poles of maps in T."""
    p = ctx.p
    yield PointSet(product(range(p), repeat=2), ctx)
    rng = random.Random(p)
    poles = sorted({-d * pow(c, -1, p) % p for _, _, c, d in
                    (key_entries(key, p) for key in T.keys) if c})
    for n in (3, p // 2):
        step = rng.randrange(1, p)
        ap = [(i * step + 1) % p for i in range(n)]
        yield PointSet(product(ap, repeat=2), ctx)
        yield PointSet(product(ap[:2], range(p)), ctx)
    for n in (1, p // 3, p - 1):
        P = random_points(ctx, n, n)
        yield P
        yield PointSet([*P.points, *((x, 0) for x in poles[: n + 1])], ctx)


@pytest.mark.parametrize("p", [7, 31, 101, 251, 257])
def test_count_incidences_equals_per_point_loop(p):
    ctx = FieldContext(p)
    rng = random.Random(p)
    indices = rng.sample(range(group_order(p)), min(120, group_order(p)))
    T = TransformSet((class_key(i, p) for i in indices), ctx)
    sets = list(_reference_sets(ctx, T))
    curved = sum(1 for key in T.keys if key_entries(key, p)[2])
    # On the full grid each map has one point per abscissa but its pole.
    assert count_incidences(sets[0], T) == p * len(T) - curved
    for P in sets:
        per_point = [_incidences_per_point(key, P.points, p) for key in T.keys]
        assert count_incidences(P, T) == sum(per_point)
        assert [richness(f, P) for f in maps_of(T)] == per_point
    on_pole = [(x, 0) for x in range(p)]
    for f in maps_of(T):
        assert [lies_on(s, f) for s in on_pole] == [
            _incidences_per_point(f.key(), [s], p) == 1 for s in on_pole]


def _seeded_maps(ctx, n):
    indices = random.Random(ctx.p).sample(range(group_order(ctx.p)), n)
    return TransformSet((class_key(i, ctx.p) for i in indices), ctx)


@pytest.mark.parametrize("p", [31, 251])
def test_count_incidences_on_both_sides_of_the_column_cut(p):
    # The graph tables count from CUT distinct abscissae on, the loop below.
    ctx = FieldContext(p)
    T = _seeded_maps(ctx, 120)
    rng = random.Random(-p)
    for k in (1, CUT - 1, CUT, CUT + 1, p):
        xs = rng.sample(range(p), k)
        P = PointSet([(x, y) for x in xs for y in rng.sample(range(p), 3)]
                     + [(x, 0) for x in xs], ctx)
        assert len(columns(P.points)) == k
        assert count_incidences(P, T) == sum(
            _incidences_per_point(key, P.points, p) for key in T.keys)


def test_count_incidences_over_more_maps_than_one_blob():
    # PGL(2, 17) has 4896 maps, more than the 4096 tables of one blob.
    ctx = FieldContext(17)
    T = keyed(enumerate_group(ctx), ctx)
    grid = PointSet(product(range(17), repeat=2), ctx)
    affine = sum(1 for key in T.keys if not key_entries(key, 17)[2])
    assert len(T) == 4896 and affine == 17 * 16
    assert count_incidences(grid, T) == 17 * affine + 16 * (len(T) - affine)
    P = random_points(ctx, 60, 17)
    assert count_incidences(P, T) == sum(richness(f, P) for f in maps_of(T)) == 60 * 17 * 16


def test_count_incidences_switch_reads_the_column_count(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the other path ran")

    ctx = FieldContext(31)
    T = _seeded_maps(ctx, 200)
    sparse = PointSet([(x, y) for x in range(CUT - 1) for y in range(31)], ctx)
    expected = sum(_incidences_per_point(key, sparse.points, 31) for key in T.keys)
    with monkeypatch.context() as m:
        m.setattr(incidence, "graph_tables", unreachable)
        assert count_incidences(sparse, T) == expected
    curved = sum(1 for key in T.keys if key_entries(key, 31)[2])
    monkeypatch.setattr(incidence, "incidences_of", unreachable)
    grid = PointSet(product(range(31), repeat=2), ctx)
    assert count_incidences(grid, T) == 31 * len(T) - curved


def test_oracles_do_not_read_graph_tables(monkeypatch):
    def unreachable(*args):
        raise AssertionError("graph_tables was called")

    ctx13 = FieldContext(13)
    grid = PointSet(product(range(13), repeat=2), ctx13)
    agl = keyed((f for f in enumerate_group(CTX5) if f.c == 0), CTX5)
    for module in (field, incidence, energy_module):
        monkeypatch.setattr(module, "graph_tables", unreachable)
    with pytest.raises(AssertionError, match="graph_tables"):
        count_incidences(grid, keyed([identity(ctx13)], ctx13))
    assert entries(rich_transforms_brute(diagonal(CTX5), 3)) == [(1, 0, 0, 1)]
    rich = rich_transforms_brute(grid, 13)
    assert len(rich) == 13 * 12 and all(f.c == 0 for f in rich)
    assert check_reduction(CTX5) == ReductionReport(5, 25, 400, 6400, 0, 0, 0)
    assert energy_brute(agl) == 20**3
    assert [richness(f, grid) for f in maps_of(rich)] == [13] * 156
    assert richness(MoebiusMap(0, 1, 1, 0, ctx13), grid) == 12
    assert lies_on((2, 1), MoebiusMap(3, 0, 1, 4, CTX7))
    assert not lies_on((0, 0), MoebiusMap(0, 1, 1, 0, CTX5))


@pytest.mark.parametrize("p, n", [(5, 8), (7, 14), (11, 22), (13, 26), (31, 30)])
def test_rich_transforms_brute_equals_literal_scan(p, n):
    ctx = FieldContext(p)
    axis_lines = [(x, 1) for x in range(p)] + [(2, y) for y in range(p)]
    # Half the axis y = 0: some rows (1, b, c, *) hold the point (-b, 0) that
    # lies on all of their maps, and some do not.
    on_axis = [(x, 0) for x in range(0, p, 2)]
    sets = (
        random_points(ctx, n, p),
        random_points(ctx, n, p + 1),
        PointSet([*random_points(ctx, n // 2, p).points, *axis_lines], ctx),
        PointSet([*random_points(ctx, n // 2, p + 2).points, *on_axis], ctx),
    )
    for P in sets:
        reference = _scan_reference(P)
        for k in (1, 2, 3, 4):
            found = rich_transforms_brute(P, k)
            expected = keyed([f for f, r in reference.items() if r >= k], ctx)
            assert found == expected


def _vote_scan_reference(P, k):
    """The group scan as it was: in each row (a, b, c, *) every point's
    equation y(cx + d) = ax + b votes for its one solution d, and a Counter
    of the votes gives the richness of every map of the row (p^2 * |P|
    steps)."""
    ctx = P.ctx
    p = ctx.p
    inv = ctx._inv
    off_axis = [(x, inv[y]) for x, y in P.points if y]
    on_axis = {x for x, y in P.points if not y}
    keys = []
    for b in range(p):
        # Row (1, b, c, *): d = (x + b)/y - cx.  At x = -b this is the
        # singular d = bc, so that point lies on no map of the row.
        base = [((x + b) * iy % p, x) for x, iy in off_axis]
        # (-b, 0) lies on every nonsingular map of the row.
        need = k - ((-b) % p in on_axis)
        for c in range(p):
            if need < 1:
                ds = range(p)
            else:
                votes = Counter([(u - c * x) % p for u, x in base])
                ds = [d for d, m in votes.items() if m >= need]
            bc = b * c % p
            row = ((p + b) * p + c) * p
            keys.extend(row + d for d in ds if d != bc)
    # Block (0, 1, c, *), c != 0: d = 1/y - cx; no point with y = 0 is on it.
    for c in range(1, p):
        votes = Counter([(iy - c * x) % p for x, iy in off_axis])
        row = (p + c) * p
        keys.extend(row + d for d, m in votes.items() if m >= k)
    keys.sort()
    return TransformSet.from_sorted(keys, ctx)


def _switch_sets(ctx):
    """Sets on both sides of the switch of the scan's row kernels, m = p//2
    and p//2 + 1 points off the axis y = 0, and two sets well past it,
    m = p and p + 1.  All hold points of the axis, so that some rows (1, b) hold
    (-b, 0) and some do not.  As far as m allows, they hold part of the
    column x = 3, which collapses to (-b, 0) in the row b = -3, and part of
    the row y = 2, which lies on a singular map of every row (1, b) and on
    the constant maps c = 0 of the block (0, 1)."""
    p = ctx.p
    lines = [*((3, y) for y in range(1, 2 + p // 3)),
             *((x, 2) for x in [x for x in range(p) if x != 3][: 2 + p // 4])]
    rest = sorted(set(product(range(p), range(1, p))) - set(lines))
    off_axis = lines + random.Random(p).sample(rest, p + 1)
    axis = [(x, 0) for x in range(0, p, 3)]
    for m in (p // 2, p // 2 + 1, p, p + 1):
        yield PointSet([*off_axis[:m], *axis], ctx)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 31, 61])
def test_rich_transforms_brute_equals_vote_scan(p):
    ctx = FieldContext(p)
    sets = list(_switch_sets(ctx))
    assert [sum(1 for _, y in P.points if y) for P in sets] == [p // 2, p // 2 + 1, p, p + 1]
    for P in sets:
        for k in (1, 2, 3, 4, 5):
            assert rich_transforms_brute(P, k) == _vote_scan_reference(P, k), (len(P), k)


@pytest.mark.parametrize("p", [101, 640793])
def test_rich_transforms_brute_skips_rows_that_cannot_be_rich(p, monkeypatch):
    """A row (1, b) holds no point of the axis y = 0 but (-b, 0), so it needs
    k - [(-b, 0) in P] of the points off the axis.  With two of them and
    k = 3 no row runs its kernel; with (x, 0) added, only the row b = -x,
    which lists the one map through the three points."""
    kernel, calls = incidence._lines_from_pairs, []

    def counted(*args):
        rich = kernel(*args)

        def row(a, b, need):
            calls.append((a, b, need))
            return rich(a, b, need)

        return row

    monkeypatch.setattr(incidence, "_lines_from_pairs", counted)
    ctx = FieldContext(p)
    two = [(1, 2), (5, 7)]
    for points, rows, size in ((two, [], 0), ([*two, (3, 0)], [(1, p - 3, 2)], 1)):
        P = PointSet(points, ctx)
        calls.clear()
        found = rich_transforms_brute(P, 3)
        assert calls == rows
        assert len(found) == size
        if p < 1000:
            assert found == _vote_scan_reference(P, 3)
        else:
            assert found == rich_transforms_pivot(P, 3)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_line_kernels_count_every_row_as_a_literal_loop(p):
    """Both row kernels, on sets below and above the switch, give the lines
    v = cx + d through at least `need` of the points (x, (ax + b)/y) in every
    row (1, b) and in the block (0, 1).  In row (1, b) every point at x = -b
    lands on (-b, 0), so the lines through it, d = bc, are left out."""
    ctx = FieldContext(p)
    inv = ctx._inv
    rows = [*((1, b) for b in range(p)), (0, 1)]
    for P in _switch_sets(ctx):
        off_axis = [(x, inv[y]) for x, y in P.points if y]
        kernels = (_lines_from_pairs(off_axis, p, inv), _lines_from_bits(off_axis, p))
        for a, b in rows:
            points = [(x, (a * x + b) * iy % p) for x, iy in off_axis]
            on_line = {c * p + d: sum(1 for x, v in points if (c * x + d - v) % p == 0)
                       for c in range(p) for d in range(p) if not a or d != b * c % p}
            for need in (1, 2, 3, 4, 5):
                expected = sorted(key for key, n in on_line.items() if n >= need)
                for rich in kernels:
                    assert sorted(on_line.keys() & set(rich(a, b, need))) == expected, (a, b, need)


def _lines_from_tally(off_axis, p):
    """Reference for _lines_from_bits, the scan's former dense kernel:
    rich(a, b, need), the keys c*p + d of the lines v = cx + d through at
    least need >= 1 of the points (x, (ax + b)/y), for (x, 1/y) in off_axis,
    from one tally of each point's p lines.  shift[c][i] = -c*x_i mod p for
    the i-th point, and keyed[c], c*p + range(p) laid twice, so that
    keyed[c][v + shift[c][i]] is the key of the line of slope c through
    (x_i, v)."""
    shift = [[-c * x % p for x, _ in off_axis] for c in range(p)]
    keyed = [list(range(c * p, c * p + p)) * 2 for c in range(p)]

    def rich(a, b, need):
        vs = [(a * x + b) * iy % p for x, iy in off_axis]
        votes = Counter(chain.from_iterable(
            map(keyed[c].__getitem__, map(add, vs, shift[c])) for c in range(p)))
        return [key for key, n in votes.items() if n >= need]

    return rich


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_bit_kernel_equals_tally_reference(p):
    """In every row, the mask kernel lists for every `need` the lines that
    the tally lists: on random sets, on a coset grid and on the full grid,
    on whose lines v = cx + d lie p points each.  Rows map points to v = 0
    at x = -b, and the block (0, 1) maps no point there."""
    ctx = FieldContext(p)
    inv = ctx._inv
    plane = list(product(range(p), range(1, p)))
    rng = random.Random(p)
    d = max(d for d in range(1, p) if (p - 1) % d == 0 and d * d <= p)
    S = {pow(x, (p - 1) // d, p) for x in range(1, p)}
    sets = [rng.sample(plane, n) for n in sorted({1, p // 2 + 1, p - 1, min(2 * p, len(plane))})]
    for points in (*sets, [(s, 2 * t % p) for s in S for t in S if t], plane):
        off_axis = [(x, inv[y]) for x, y in points]
        bits, tally = _lines_from_bits(off_axis, p), _lines_from_tally(off_axis, p)
        # Every need on the 930 points of the plane at p = 31 would take
        # seconds; there the needs sit around p and around 2p - 2, the most
        # points on one line, since p - 1 points land on (-b, 0) in row (1, b).
        needs = (range(1, len(off_axis) + 2) if len(off_axis) < 900
                 else [1, 2, 3, p - 1, p, p + 1, 2 * p - 3, 2 * p - 2, 2 * p - 1])
        for a, b in [*((1, b) for b in range(p)), (0, 1)]:
            for need in needs:
                expected = sorted(tally(a, b, need))
                assert list(bits(a, b, need)) == expected, (a, b, need)
                if not expected:
                    break
    assert tally(0, 1, p)


def test_rich_transforms_monotone_in_k():
    P = random_points(CTX7, 14, 9)
    sets = {k: set(rich_transforms_brute(P, k).keys) for k in (1, 2, 3, 4, 5)}
    for k in (1, 2, 3, 4):
        assert sets[k + 1] <= sets[k]


def test_full_group_threshold_error():
    with pytest.raises(ValueError, match="the full-group scan needs k >= 1"):
        rich_transforms_brute(diagonal(CTX5), 0)


def test_transforms_defined_by_examples():
    # the maps defined by P (through three of its points) are its 3-rich maps
    assert len(rich_transforms_pivot(PointSet([(0, 0), (1, 1)], CTX5), 3)) == 0
    assert entries(rich_transforms_pivot(diagonal(CTX5), 3)) == [(1, 0, 0, 1)]
    P = PointSet([(0, 0), (1, 1), (2, 2), (3, 5)], CTX7)
    defined = rich_transforms_pivot(P, 3)
    # frozen from an independent full-group scan over the 336 classes
    assert entries(defined) == [
        (1, 0, 0, 1), (1, 0, 1, 6), (1, 0, 4, 4), (1, 2, 6, 4),
    ]
    assert defined == rich_transforms_brute(P, 3)


def test_conjugation_covariance():
    # richness(f, P) = richness(g*f, P_g) when g is finite on every ordinate
    rng = random.Random(17)
    members = list(enumerate_group(CTX7))
    checked = 0
    while checked < 10:
        P = random_points(CTX7, 10, rng.randrange(1 << 30))
        g = rng.choice(members)
        if any(g(y) is INFINITY for _, y in P):
            continue
        moved = PointSet([(x, g(y)) for x, y in P], CTX7)
        assert len(moved) == len(P)
        f = rng.choice(members)
        assert richness(f, P) == richness(g * f, moved)
        checked += 1
