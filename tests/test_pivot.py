"""The pivot reduction: conjugation to lines, point transplant, enumeration."""

import os
import random
from collections import Counter
from itertools import chain, islice, product
from operator import add, itemgetter

import pytest

import mobinc.pivot as pivot_module
from mobinc import field
from mobinc.field import PAD, FieldContext
from mobinc.incidence import PointSet, rich_transforms_brute
from mobinc.pivot import (
    NonVertical,
    Vertical,
    _check_pivot_row,
    _reduction_tables,
    check_reduction,
    rich_counts,
    rich_lines,
    rich_transforms_pivot,
)

from reference import (
    INFINITY,
    MoebiusMap,
    conjugate_through_pivot,
    entries,
    enumerate_group,
    identity,
    keyed,
    lies_on,
    line_image,
    line_preimage,
    line_through,
    maps_of,
    point_on_line,
    richness,
    transforms_through_pivot,
    transplant_points,
)

CTX5 = FieldContext(5)
CTX7 = FieldContext(7)


def curved_through(ctx, q):
    """All group elements through q with c != 0, by filtering the full group."""
    q1, q2 = q
    return [
        f for f in enumerate_group(ctx) if f.c != 0 and f(q1) == q2
    ]


def random_points(ctx, n, seed):
    rng = random.Random(seed)
    p = ctx.p
    return PointSet([(v // p, v % p) for v in rng.sample(range(p * p), n)], ctx)


def test_transforms_through_pivot_examples():
    ident = identity(CTX7)
    T = keyed([ident], CTX7)
    lines_part, curved_part = transforms_through_pivot(T, (3, 3))
    assert lines_part.keys == (ident.key(),) and len(curved_part) == 0
    lines_part, curved_part = transforms_through_pivot(T, (3, 4))
    assert len(lines_part) == 0 and len(curved_part) == 0
    f = MoebiusMap(3, 0, 1, 4, CTX7)
    lines_part, curved_part = transforms_through_pivot(keyed([f], CTX7), (1, 2))
    assert len(lines_part) == 0 and curved_part.keys == (f.key(),)


def test_transforms_through_pivot_partitions():
    members = list(enumerate_group(CTX5))
    T = keyed(members, CTX5)
    for q in ((0, 0), (1, 2), (4, 3)):
        lines_part, curved_part = transforms_through_pivot(T, q)
        through = {f.key() for f in members if f(q[0]) == q[1]}
        assert set(lines_part.keys) | set(curved_part.keys) == through
        assert not set(lines_part.keys) & set(curved_part.keys)
        assert all(f.c == 0 for f in lines_part)
        assert len(curved_part) == (CTX5.p - 1) ** 2
    # A pivot given outside [0, p) is reduced first.
    assert transforms_through_pivot(T, (7, -1)) == transforms_through_pivot(T, (2, 4))


def test_line_image_examples():
    f = MoebiusMap(3, 0, 1, 4, CTX7)  # 3x/(x+4) through (1,2)
    assert line_image(f, (1, 2)) == NonVertical(5, 6)
    g = MoebiusMap(1, 0, 1, 1, CTX5)  # x/(x+1) through (0,0)
    assert line_image(g, (0, 0)) == NonVertical(1, 4)
    affine = MoebiusMap(1, 1, 0, 1, CTX7)
    with pytest.raises(ValueError, match="is affine; the conjugate needs c != 0"):
        line_image(affine, (1, 2))
    with pytest.raises(ValueError, match="does not map"):
        line_image(f, (1, 3))


def test_conjugate_determinant_and_injectivity_exhaustive_p5():
    p = 5
    for q in product(range(p), repeat=2):
        images = set()
        for f in curved_through(CTX5, q):
            conj = conjugate_through_pivot(f, q)
            assert conj[2] == 0  # upper triangular: the image is a line
            s = pow(f.c, -1, 5)
            scaled_det = (f.a * s * (f.d * s) - f.b * s * (f.c * s)) % p
            conj_det = (conj[0] * conj[3] - conj[1] * conj[2]) % p
            assert conj_det == scaled_det
            images.add(line_image(f, q))
        assert len(images) == (p - 1) ** 2  # distinct maps, distinct lines


def test_line_image_never_degenerate():
    for q in ((0, 0), (2, 3)):
        for f in curved_through(CTX7, q):
            line = line_image(f, q)
            assert line.intercept != 0
            assert line.slope != 0


def test_transplant_examples():
    P2, excluded = transplant_points(PointSet([(3, 4)], CTX7), (1, 2))
    assert P2.points == ((3, 3),) and excluded == 0
    P2, excluded = transplant_points(PointSet([(1, 4)], CTX7), (1, 2))
    assert len(P2) == 0 and excluded == 1
    P2, excluded = transplant_points(PointSet([(0, 0)], CTX5), (1, 2))
    assert P2.points == ((1, 3),) and excluded == 0


def test_transplant_is_injective_on_kept_points():
    for seed in range(5):
        P = random_points(CTX7, 20, seed)
        for q in [(0, 0), (3, 5), (6, 6)]:
            P2, excluded = transplant_points(P, q)
            assert len(P2) == len(P) - excluded


def test_incidence_preservation_exhaustive_p5():
    # the defining property: s on f <=> transplant(s) on line_image(f)
    p = 5
    for q in product(range(p), repeat=2):
        curved = curved_through(CTX5, q)
        points = [
            (s1, s2)
            for s1 in range(p) if s1 != q[0]
            for s2 in range(p) if s2 != q[1]
        ]
        moved, excluded = transplant_points(PointSet(points, CTX5), q)
        assert excluded == 0 and len(moved) == len(points)
        inv = CTX5._inv
        for f in curved:
            line = line_image(f, q)
            for s1, s2 in points:
                image = (inv[(q[0] - s1) % p], inv[(q[1] - s2) % p])
                assert lies_on((s1, s2), f) == point_on_line(image, line, CTX5)


def test_lost_incidence_accounting():
    # for a pivot inside P, exactly the pivot incidence is lost
    for seed in (1, 2, 3):
        P = random_points(CTX7, 16, seed)
        for q in P.points[:4]:
            moved, _ = transplant_points(P, q)
            for f in curved_through(CTX7, q):
                on_line = sum(
                    1 for s in moved if point_on_line(s, line_image(f, q), CTX7)
                )
                assert richness(f, P) == 1 + on_line


def test_line_through_and_rich_lines():
    assert line_through((1, 1), (1, 3), CTX5) == Vertical(1)
    assert line_through((0, 0), (1, 1), CTX5) == NonVertical(1, 0)
    with pytest.raises(ValueError):
        line_through((2, 2), (2, 2), CTX5)

    collinear = PointSet([(0, 0), (1, 1), (2, 2)], CTX7)
    assert rich_lines(collinear, 3) == (NonVertical(1, 0),)
    assert rich_lines(collinear, 4) == ()  # 3 pairs, but 4 points need 6
    grid = PointSet(product(range(5), repeat=2), CTX5)
    lines = rich_lines(grid, 5)
    assert len(lines) == 30  # 25 non-vertical plus 5 vertical
    assert rich_lines(PointSet([(1, 1)], CTX5), 2) == ()
    with pytest.raises(ValueError, match="rich lines need a threshold >= 2"):
        rich_lines(grid, 1)


def test_line_preimage_examples():
    f = line_preimage(NonVertical(5, 6), (1, 2), CTX7)
    assert f is not None and f.as_tuple() == (1, 0, 5, 6)  # class of 3x/(x+4)
    # a line through the origin pulls back to the affine map x -> (x+3)/2
    f = line_preimage(NonVertical(2, 0), (1, 2), CTX7)
    assert f is not None and f.as_tuple() == (1, 3, 0, 2)
    assert line_preimage(Vertical(3), (1, 2), CTX7) is None
    assert line_preimage(NonVertical(0, 3), (1, 2), CTX7) is None


def test_line_preimage_roundtrip():
    # every map through q, affine ones included; the line is found from two
    # transplanted graph points, independently of line_image
    for ctx in (CTX5, CTX7, FieldContext(11)):
        p = ctx.p
        for q1, q2 in ((0, 0), (1, 2), (4, 3)):
            through = [f for f in enumerate_group(ctx) if f(q1) == q2]
            assert len(through) == p * (p - 1)
            lines = set()
            for f in through:
                graph = [
                    (pow(q1 - x, -1, p), pow(q2 - f(x), -1, p))
                    for x in range(p)
                    if x != q1 and f(x) is not INFINITY
                ]
                line = line_through(graph[0], graph[1], ctx)
                assert all(point_on_line(s, line, ctx) for s in graph)
                if f.c != 0:
                    assert line == line_image(f, (q1, q2))
                assert line_preimage(line, (q1, q2), ctx) == f
                lines.add(line)
            assert len(lines) == len(through)


def test_rich_transforms_pivot_examples():
    assert len(rich_transforms_pivot(PointSet([], CTX5), 3)) == 0
    diag = PointSet([(x, x) for x in range(5)], CTX5)
    assert entries(rich_transforms_pivot(diag, 3)) == [(1, 0, 0, 1)]
    with pytest.raises(ValueError, match="pivot enumeration needs k >= 3"):
        rich_transforms_pivot(diag, 2)


@pytest.mark.parametrize("p,seed", [(7, 0), (7, 1), (11, 2), (13, 3)])
def test_pivot_equals_brute(p, seed):
    ctx = FieldContext(p)
    P = random_points(ctx, 12, seed)
    for k in (3, 4):
        assert rich_transforms_pivot(P, k) == rich_transforms_brute(P, k)


def richness_tails(richnesses, k):
    """For each r >= k, how many of the richnesses are at least r."""
    richnesses = list(richnesses)
    return {
        r: sum(count >= r for count in richnesses)
        for r in range(k, max(richnesses, default=0) + 1)
    }


def test_rich_counts_equal_brute_richness_tails():
    for p, seed in ((7, 5), (11, 6)):
        ctx = FieldContext(p)
        P = random_points(ctx, 14, seed)
        for k in (3, 4):
            brute = rich_transforms_brute(P, k)
            assert rich_counts(P, k) == richness_tails((richness(f, P) for f in maps_of(brute)), k)
    with pytest.raises(ValueError, match="pivot enumeration needs k >= 3"):
        rich_counts(P, 2)


def _chart_move(point, q, p, inv):
    """(B, A) of an admissible point at pivot q: A = (x - q1)/(y - q2), B = y*A."""
    (x, y), (q1, q2) = point, q
    A = (x - q1) * inv[(y - q2) % p] % p
    return y * A % p, A


def _on_chart_line(moved, key, p):
    """Whether (B, A) lies on the line keyed as _line_pairs keys lines."""
    B, A = moved
    slope, j = divmod(key, p)
    return B == j if slope == p else A == (slope * B + j) % p


def _map_chart_key(f, q, ctx):
    """The chart line of f through q, from a*A = c*B + e with e = d + c*q1."""
    p = ctx.p
    a, _, c, d = f.as_tuple()
    e = (d + c * q[0]) % p
    if a == 0:
        return p * p + (-e * pow(c, -1, p)) % p
    w = pow(a, -1, p)
    return c * w % p * p + e * w % p


def _pivot_walk(P, k, listing, monkeypatch, pivots=None):
    """(q1, q2, lines, dense) for the first `pivots` pivots of the walk
    (all by default), the listed keys sorted; dense when the pivot's lines
    were counted in masks, not from their point pairs."""
    walk, calls, levels = [], [], pivot_module._chart_levels
    with monkeypatch.context() as patch:
        patch.setattr(pivot_module, "_chart_levels",
                      lambda *args: calls.append(args) or levels(*args))
        for q1, q2, lines in islice(pivot_module._chart_lines(P, k, listing), pivots):
            walk.append((q1, q2, sorted(lines) if listing else lines, bool(calls)))
            calls.clear()
    return walk


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chart_lines_carry_exactly_the_maps_through_each_pivot(p, monkeypatch):
    # Every map through q comes from the group scan, and every key from the
    # chart equation; the production walk and its decoding are then checked
    # against them.  PointSet.from_sorted keeps q first, so q is the pivot
    # of every other point: the walk reads only the order of the points.
    # Behind q come all other points, (p-1)^2 of them moved, which the
    # masks count from p = 3 on, or p or p//2 + 1 of them, fewer moved,
    # which the pairs count once at most p/2 are moved; the first pivot
    # must list and count the lines through each number of moved points.
    ctx = FieldContext(p)
    inv = ctx._inv
    group = list(enumerate_group(ctx))
    grid = [(x, y) for x in range(p) for y in range(p)]
    for q in grid:
        q1, q2 = q
        admissible = [(x, y) for x, y in grid if x != q1 and y != q2]
        moved = {s: _chart_move(s, q, p, inv) for s in admissible}
        expected = {}
        for f in (f for f in group if f(q1) == q2):
            key = _map_chart_key(f, q, ctx)
            others = [(x, f(x)) for x in range(p) if x != q1 and f(x) is not INFINITY]
            assert [s for s in admissible if _on_chart_line(moved[s], key, p)] == others
            if len(others) >= 2:
                assert key not in expected
                expected[key] = others
                line = line_through(moved[others[0]], moved[others[1]], ctx)
                assert key == (p * p + line.x if isinstance(line, Vertical)
                               else line.slope * p + line.intercept)
                lone = PointSet.from_sorted([q, *others], ctx)
                assert rich_transforms_pivot(lone, len(others) + 1).keys == (f.key(),)
        # The rows and columns carry no map, each on its documented line.
        dropped = {}
        for r in range(p):
            dropped[inv[r] * p if r else p * p] = [s for s in admissible if s[1] == r]
        for s1 in range(p):
            w = inv[q2]
            key = w * p + (q1 - s1) * w % p if q2 else p * p + (s1 - q1) % p
            dropped[key] = [s for s in admissible if s[0] == s1]
        for key, points in dropped.items():
            assert key not in expected
            assert [s for s in admissible if _on_chart_line(moved[s], key, p)] == points
        rest = [s for s in grid if s != q]
        for later in (rest, rest[:p], rest[: p // 2 + 1]):
            lone = PointSet.from_sorted([q, *later], ctx)
            n_moved = sum(s in later for s in admissible)
            dense = 2 * n_moved > p
            # A line through one moved point carries no map.
            through = {key: m for key, others in expected.items()
                       if (m := sum(s in later for s in others)) >= 2}
            for k in range(3, max(through.values(), default=2) + 3):
                walks = (_pivot_walk(lone, k, listing, monkeypatch, pivots=1)
                         for listing in (True, False))
                at_q = [walk[0] for walk in walks if walk and walk[0][:2] == q]
                if n_moved < k - 1:
                    # No line carries k - 1 of the moved points: the walk skips q.
                    assert at_q == []
                    continue
                listed, tally = at_q
                assert listed[:2] == tally[:2] == q and listed[3] == tally[3] == dense
                assert listed[2] == sorted(key for key, m in through.items() if m == k - 1)
                assert tally[2] == Counter(m for m in through.values() if m >= k - 1)


def _paper_chart_listing(P, k):
    """The k-rich maps through the paper's transplant: each pivot's later
    points transplanted, their (k-1)-rich lines pulled back through
    line_preimage, and the productions with exactly k - 1 later points kept."""
    keys = []
    for i, q in enumerate(P.points):
        later = transplant_points(PointSet(P.points[i + 1 :], P.ctx), q)[0]
        for line in set(rich_lines(later, k - 1)) - set(rich_lines(later, k)):
            f = line_preimage(line, q, P.ctx)
            if f is not None:
                keys.append(f.key())
    return tuple(sorted(keys))


@pytest.mark.parametrize("p, n", [(11, 30), (31, 60)])
def test_rich_transforms_pivot_equal_paper_chart_listing(p, n):
    ctx = FieldContext(p)
    with_zero_row = PointSet(
        [*axis_lines_and_random(ctx, n // 2, p).points, *((x, 0) for x in range(0, p, 2))], ctx)
    assert any(q2 == 0 for _, q2 in with_zero_row.points[:-3])
    for P in (random_points(ctx, n, p), axis_lines_and_random(ctx, n // 2, p), with_zero_row):
        for k in (3, 4):
            reference = _paper_chart_listing(P, k)
            assert len(reference) == len(set(reference)) > 0
            assert rich_transforms_pivot(P, k).keys == reference


def _pivot_multiplicities_every_pivot(P, k):
    """Every pivot transplants all of P, and every production of a map counts
    once towards its multiplicity, which is then the map's richness."""
    multiplicity = {}
    for q in P.points:
        for line in rich_lines(transplant_points(P, q)[0], k - 1):
            f = line_preimage(line, q, P.ctx)
            if f is not None:
                multiplicity[f] = multiplicity.get(f, 0) + 1
    return multiplicity


def _rich_lines_pairwise(P, j):
    """Reference for rich_lines: every pair counted under its AffineLine."""
    pairs = {}
    for i, s in enumerate(P.points):
        for t in P.points[i + 1 :]:
            line = line_through(s, t, P.ctx)
            pairs[line] = pairs.get(line, 0) + 1
    rich = [line for line, count in pairs.items() if count >= j * (j - 1) // 2]
    return tuple(sorted(rich, key=lambda line: (isinstance(line, Vertical), *line)))


def axis_lines_and_random(ctx, n, seed):
    """n random points plus the full row y = 1 and the full column x = 2."""
    p = ctx.p
    full = [(x, 1) for x in range(p)] + [(2, y) for y in range(p)]
    return PointSet([*random_points(ctx, n, seed).points, *full], ctx)


@pytest.mark.parametrize("p, n", [(7, 16), (11, 30), (13, 40), (31, 60)])
def test_rich_counts_equal_every_pivot_reference(p, n):
    ctx = FieldContext(p)
    for P in (random_points(ctx, n, p), axis_lines_and_random(ctx, n // 2, p)):
        for k in (3, 4, 5):
            reference = _pivot_multiplicities_every_pivot(P, k)
            assert rich_counts(P, k) == richness_tails(reference.values(), k)


def _slope_tables(p):
    """Per slope c, the tables _slope_tally reads: shift[c][B] = -c*B mod p,
    and keyed[c], c*p + range(p) laid twice, so that keyed[c][A + shift[c][B]]
    = c*p + (A - c*B) mod p is the key of the line of slope c through (B, A)."""
    shift = [[-c * B % p for B in range(p)] for c in range(p)]
    keyed = [list(range(c * p, c * p + p)) * 2 for c in range(p)]
    return shift, keyed


def _slope_tally(moved, p, tables):
    """Reference for _chart_levels, the walk's former dense kernel: every
    line through one or more of the points (B, A), keyed as _line_pairs
    keys it, with its number of points.  Each point lies on one line
    A = cB + j of each slope c and on the vertical B = beta, so a slope
    takes one pass of table lookups over the points."""
    shift, keyed = tables
    Bs = [B for B, _ in moved]
    As = [A for _, A in moved]
    return Counter(chain(map((p * p).__add__, Bs), *[
        map(keyed[c].__getitem__, map(add, As, map(shift[c].__getitem__, Bs))) for c in range(p)]))


def coset_grid(p):
    """S x 2S for the subgroup S of F_p^* of the largest order d <= sqrt(p)
    dividing p - 1: the d-th powers' images x^((p-1)/d)."""
    d = max(d for d in range(1, p) if (p - 1) % d == 0 and d * d <= p)
    S = {pow(x, (p - 1) // d, p) for x in range(1, p)}
    return [(s, 2 * t % p) for s in S for t in S]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 31])
def test_chart_levels_equal_slope_tally(p):
    # Chart points (B, A) of random sets, of a coset grid and of the full
    # grid, on whose lines lie p points each; points with A = 0 or B = 0
    # are among them.  Under every cap `top`, level j must hold exactly the
    # lines through more than j points, as _set_bits reads them.
    tables, reference = pivot_module._pencil_tables(p), _slope_tables(p)
    grid = list(product(range(p), repeat=2))
    rng = random.Random(p)
    sets = [rng.sample(grid, n) for n in sorted({1, p // 2 + 1, p, min(2 * p, p * p)})]
    for moved in (*sets, coset_grid(p), grid):
        tally = _slope_tally(moved, p, reference)
        for top in range(1, max(tally.values()) + 2):
            levels = pivot_module._chart_levels(moved, p, tables, top)
            assert [list(pivot_module._set_bits(level, tables[3])) for level in levels] == [
                sorted(key for key, n in tally.items() if n > j) for j in range(top)]
    assert max(tally.values()) == p


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_dense_pivots_list_and_count_as_the_group_scan(p, monkeypatch):
    # A pivot that moves more than p/2 points is counted in masks, one
    # that moves at most p/2 by its point pairs.  Random sets of p//2 + 1
    # to 4p points sit around that switch, run both branches, and from 2p
    # on they start dense; the full grid, walked last, adds full rows and
    # columns, dense pivots with q2 = 0 and maps with a = 0.
    ctx = FieldContext(p)
    grid = PointSet(product(range(p), repeat=2), ctx)
    branches = set()
    for P in (*(random_points(ctx, n, n) for n in (p // 2 + 1, p, p + 2, 2 * p, 4 * p)), grid):
        walk = [(q2, dense) for _, q2, _, dense in _pivot_walk(P, 3, True, monkeypatch)]
        if P is not grid:
            branches.update(dense for _, dense in walk)
        if len(P) >= 2 * p:
            assert walk[0][1]
        scan = rich_transforms_brute(P, 3)
        richnesses = [richness(f, P) for f in maps_of(scan)]
        for k in range(3, max(richnesses, default=2) + 1):
            assert rich_transforms_pivot(P, k) == rich_transforms_brute(P, k)
            assert rich_counts(P, k) == richness_tails(richnesses, k)
    assert branches == {True, False} and (0, True) in walk
    assert any(key < p**3 for key in rich_transforms_pivot(grid, 3).keys)


def test_walk_skips_pivots_that_move_fewer_than_k_minus_1_points(monkeypatch):
    # A pivot of the full grid of F_13 moves at most 12^2 = 144 points, so at
    # k = 200 no line carries k - 1 of them and no mask level is built.
    def unreachable(*args):
        raise AssertionError("_chart_levels was called")

    grid = PointSet(product(range(13), repeat=2), FieldContext(13))
    monkeypatch.setattr(pivot_module, "_chart_levels", unreachable)
    assert rich_counts(grid, 200) == {}
    assert len(rich_transforms_pivot(grid, 200)) == 0


@pytest.mark.parametrize("p, n", [(7, 16), (11, 30), (13, 40), (31, 60)])
def test_rich_lines_equal_pairwise_reference(p, n):
    ctx = FieldContext(p)
    for P in (random_points(ctx, n, p), axis_lines_and_random(ctx, n // 2, p)):
        for j in (2, 3, 4):
            assert rich_lines(P, j) == _rich_lines_pairwise(P, j)


def test_check_reduction_counts():
    report = check_reduction(CTX5)
    assert report.ok
    assert report.pivots == 25
    assert report.transforms == 25 * 16  # (p-1)^2 curved maps per pivot
    assert report.triples == 25 * 16 * 16
    partial = check_reduction(CTX7, pivots=[(0, 0), (1, 2)])
    assert partial.ok and partial.pivots == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_reduction_reduces_its_pivots(jobs, monkeypatch):
    # each pivot is reduced mod p where it is checked, in or out of a worker
    monkeypatch.setattr(field, "SERIAL_BUDGET_S", 0)
    reduced = check_reduction(CTX5, pivots=[(2, 4), (2, 3)], jobs=1)
    assert check_reduction(CTX5, pivots=[(7, -1), (12, 3)], jobs=jobs) == reduced
    assert reduced.ok and reduced.transforms == 2 * 16


def test_check_reduction_parametrization_matches_group_filter():
    # the (a, d) parametrization hits exactly the curved classes through q
    for q in ((1, 2), (0, 4)):
        expected = {f.as_tuple() for f in curved_through(CTX5, q)}
        parametrized = set()
        p = 5
        for a in range(p):
            if a == q[1]:
                continue
            for d in range(p):
                if (d + q[0]) % p == 0:
                    continue
                b = (q[1] * (q[0] + d) - a * q[0]) % p
                parametrized.add(MoebiusMap(a, b, 1, d, CTX5).as_tuple())
        assert parametrized == expected


def _check_one_pivot(ctx, q):
    """The row kernel on the one-pivot row of q."""
    return _check_pivot_row(ctx, q[0], [q[1]], _reduction_tables(ctx))[0]


def _check_one_pivot_pointwise(ctx, q1, q2):
    """Reference for _check_pivot_row: every map tested at every admissible point."""
    p = ctx.p
    inv = ctx._inv
    points = [
        (s1, s2, inv[(q1 - s1) % p], inv[(q2 - s2) % p])
        for s1 in range(p)
        if s1 != q1
        for s2 in range(p)
        if s2 != q2
    ]
    transforms = triples = violations = det_mismatches = 0
    lines_seen = set()
    for a in range(p):
        if a == q2:
            continue
        u = (a - q2) % p
        inv_u = inv[u]
        for d in range(p):
            if (d + q1) % p == 0:
                continue
            b = (q2 * (q1 + d) - a * q1) % p
            transforms += 1
            m = (q1 + d) * inv_u % p
            i = (-inv_u) % p
            # the line's pullback has determinant m, and c = -i
            w = inv[(-i) % p]
            if (m * w * w - (a * d - b)) % p != 0:
                det_mismatches += 1
            lines_seen.add((m, i))
            for s1, s2, t1, t2 in points:
                den = (s1 + d) % p
                on_curve = den != 0 and (s2 * den - a * s1 - b) % p == 0
                on_line = (t2 - m * t1 - i) % p == 0
                if on_curve != on_line:
                    violations += 1
                triples += 1
    collisions = transforms - len(lines_seen)
    return transforms, triples, violations, collisions, det_mismatches


def test_check_one_pivot_matches_pointwise_reference():
    for p in (5, 7, 11):
        ctx = FieldContext(p)
        for q in product(range(p), repeat=2):
            assert _check_one_pivot(ctx, q) == _check_one_pivot_pointwise(ctx, *q), (p, q)


@pytest.mark.parametrize("p", [13, 17])
def test_check_one_pivot_matches_pointwise_reference_sampled(p):
    # (0, 0), one pivot on each axis, and a seeded sample of the rest.
    ctx = FieldContext(p)
    rng = random.Random(p)
    pivots = [(0, 0), (rng.randrange(1, p), 0), (0, rng.randrange(1, p))]
    pivots += [(v // p, v % p) for v in rng.sample(range(p * p), 7)]
    for q in pivots:
        assert _check_one_pivot(ctx, q) == _check_one_pivot_pointwise(ctx, *q), (p, q)


def _check_one_pivot_sets(ctx, q):
    """Reference for _check_pivot_row: each graph as a set of keyed points."""
    p = ctx.p
    inv = ctx._inv
    q1, q2 = q[0] % p, q[1] % p
    # A point (s1, s2) is keyed as s1*p + s2.
    xs = [s1 for s1 in range(p) if s1 != q1]
    rows = [(s1 * p, inv[(q1 - s1) % p]) for s1 in xs]
    transforms = violations = det_mismatches = 0
    lines_seen = set()
    for a in range(p):
        if a == q2:
            continue
        u = (a - q2) % p
        inv_u = inv[u]
        i = (-inv_u) % p
        for d in range(p):
            if (d + q1) % p == 0:
                continue
            b = (q2 * (q1 + d) - a * q1) % p
            transforms += 1
            m = (q1 + d) * inv_u % p
            # the pullback of t2 = m*t1 + i, scaled by 1/(-i) to c = 1
            pulled = [x * inv[(-i) % p] for x in (1 - i * q2, q2 * m + i * q1 * q2 - q1,
                                                  -i, m + i * q1)]
            if (pulled[0] * pulled[3] - pulled[1] * pulled[2] - (a * d - b)) % p != 0:
                det_mismatches += 1
            lines_seen.add((m, i))
            curve = {
                s1 * p + s2
                for s1 in xs
                if (den := (s1 + d) % p)
                and (s2 := (a * s1 + b) * inv[den] % p) != q2
            }
            line = {
                row + (q2 - inv[t2]) % p
                for row, t1 in rows
                if (t2 := (m * t1 + i) % p)
            }
            violations += len(curve ^ line)
    collisions = transforms - len(lines_seen)
    triples = transforms * (p - 1) ** 2
    return transforms, triples, violations, collisions, det_mismatches


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_check_one_pivot_matches_set_reference(p):
    ctx = FieldContext(p)
    for q in product(range(p), repeat=2):
        assert _check_one_pivot(ctx, q) == _check_one_pivot_sets(ctx, q), (p, q)


def test_check_one_pivot_matches_set_reference_at_the_cap():
    # p = 53, the largest exhaustive check the CLI starts, where the curve
    # keys reach p^2: (0, 0), one pivot on each axis and a seeded sample.
    p = 53
    ctx = FieldContext(p)
    rng = random.Random(p)
    pivots = [(0, 0), (rng.randrange(1, p), 0), (0, rng.randrange(1, p))]
    pivots += [(v // p, v % p) for v in rng.sample(range(p * p), 3)]
    for q in pivots:
        assert _check_one_pivot(ctx, q) == _check_one_pivot_sets(ctx, q), q


def _rows_match_set_reference(ctx):
    """Check every whole row of ctx against the set reference; return its reports."""
    p = ctx.p
    reports = []
    for q1 in range(p):
        row = _check_pivot_row(ctx, q1, range(p), _reduction_tables(ctx))
        assert row == [_check_one_pivot_sets(ctx, (q1, q2)) for q2 in range(p)], q1
        reports += row
    return reports


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_check_pivot_row_matches_set_reference(p):
    # Every row whole, shuffled, and with one q2 repeated: a pivot's counts
    # must not depend on the pivots it shares its row tables with.
    ctx = FieldContext(p)
    rng = random.Random(p)
    for q1 in range(p):
        reference = {q2: _check_one_pivot_sets(ctx, (q1, q2)) for q2 in range(p)}
        shuffled = list(range(p))
        rng.shuffle(shuffled)
        repeated = shuffled[:1] + shuffled + shuffled[:1]
        for q2s in (range(p), shuffled, repeated):
            got = _check_pivot_row(ctx, q1, q2s, _reduction_tables(ctx))
            assert got == [reference[q2] for q2 in q2s], (p, q1, q2s)


@pytest.mark.parametrize("jobs", [1, 2])
def test_check_reduction_groups_pivots_by_row(jobs, monkeypatch):
    # Pivots of several rows, interleaved, one repeated, some unreduced,
    # with no serial budget, so that two jobs fork.
    monkeypatch.setattr(field, "SERIAL_BUDGET_S", 0)
    pivots = [(3, 1), (0, 0), (10, 8), (3, 1), (-4, 2), (6, 5), (0, 4)]
    report = check_reduction(CTX7, pivots=pivots, jobs=jobs)
    totals = [sum(col) for col in zip(*(_check_one_pivot_sets(CTX7, q) for q in pivots))]
    assert report == (CTX7.p, len(pivots), *totals)
    # (3, 1) stands for three of the seven pivots, and each is checked.
    assert report.pivots == 7 and report.transforms == 7 * 36


@pytest.mark.parametrize("pad", [PAD, 2])
@pytest.mark.parametrize("jobs", [1, 2])
def test_check_reduction_builds_the_p_only_tables_once(jobs, pad, monkeypatch):
    # However many rows a call has, and whether or not a worker checks some
    # of them, the tables that depend on p alone are built once, in the
    # caller, and every row reads them: the reports equal the set
    # reference, through the lanes and, with the byte switch moved below
    # every prime, through the integer batches.
    monkeypatch.setattr(pivot_module, "PAD", pad)
    monkeypatch.setattr(field, "SERIAL_BUDGET_S", 0)
    caller, built, build = os.getpid(), [], pivot_module._reduction_tables

    def spy(ctx):
        assert os.getpid() == caller, "a worker built the p-only tables"
        built.append(ctx.p)
        return build(ctx)

    monkeypatch.setattr(pivot_module, "_reduction_tables", spy)
    for p, pivots in ((5, None), (7, [(3, 1)]), (7, [(3, 1), (0, 0), (10, 8), (-4, 2), (6, 5)])):
        ctx = FieldContext(p)
        built.clear()
        report = check_reduction(ctx, pivots=pivots, jobs=jobs)
        assert built == [p], (p, pivots)
        pivots = pivots or list(product(range(p), repeat=2))
        totals = [sum(col) for col in zip(*(_check_one_pivot_sets(ctx, q) for q in pivots))]
        assert report == (p, len(pivots), *totals)


@pytest.mark.parametrize("p, pool", [(73, "parallel_map"), (79, "fork_join")])
def test_check_reduction_sends_rows_that_outlast_the_budget_to_fork_join(p, pool, monkeypatch):
    # From FORK_ROWS_P on a row of one pivot outlasts parallel_map's serial
    # budget, so the rows skip its head; below, a short check starts no
    # process.  The report is the same either way.
    assert 73 < pivot_module.FORK_ROWS_P <= 79
    called = []
    for name in ("parallel_map", "fork_join"):
        def spy(fn, units, jobs, name=name, real=getattr(pivot_module, name)):
            called.append(name)
            return real(fn, units, jobs)

        monkeypatch.setattr(pivot_module, name, spy)
    report = check_reduction(FieldContext(p), pivots=[(1, 2), (3, 4)], jobs=1)
    assert called == [pool]
    assert report == (p, 2, 2 * (p - 1) ** 2, 2 * (p - 1) ** 4, 0, 0, 0)


def _check_pivot_row_reference(ctx, q1, q2s):
    """Reference for _check_pivot_row's byte lanes: each batch a tuple.

    The row kernel as it was before the lanes, for every p: one batch per
    (pivot, a), its entries not shifted, so that q2 marks no point; the
    curve batch gathered from aff[alpha*p + beta] = (a*alpha + beta) mod p,
    the pole keyed p^2 and aff[p^2] set to the pivot's q2, and the line
    batch gathered from scale at the products.
    """

    def gather(indices):
        if len(indices) == 1:
            (index,) = indices
            return lambda seq: (seq[index],)
        return itemgetter(*indices)

    p = ctx.p
    inv = ctx._inv
    q1 %= p
    q2s = [q2 % p for q2 in q2s]
    xs = [s1 for s1 in range(p) if s1 != q1]
    ds = [d for d in range(p) if (d + q1) % p]
    cycle = list(range(p)) * p
    mul = [[0] * p] + [cycle[: m * p : m] for m in range(1, p)]
    doubled = cycle[: 2 * p]
    lines = set()
    for u in range(1, p):
        inv_u = inv[u]
        lines.update(map(((-inv_u) % p * p).__add__, mul[inv_u][1:]))
    transforms = (p - 1) * len(ds)
    collisions = transforms - len(lines)
    t1s = [inv[(q1 - s1) % p] for s1 in xs]
    es = [(q1 + d) % p for d in ds]
    at_products = gather([mul[e][t1] for e in es for t1 in t1s])
    pole = p * p
    scaled = [alpha * p for alpha in range(p)]
    alpha_p, zs = [], []
    for d, e in zip(ds, es):
        for s1 in xs:
            if den := (s1 + d) % p:
                w = inv[den]
                alpha_p.append(scaled[mul[(s1 - q1) % p][w]])
                zs.append(mul[e][w])
            else:
                alpha_p.append(pole)
                zs.append(0)
    at_z = gather(zs)
    curve_ats = [gather(tuple(map(add, alpha_p, at_z(mul[q2])))) for q2 in q2s]
    pulleds = [([q2] + [(q2 - inv[t]) % p for t in range(1, p)]) * 2 for q2 in q2s]
    violations = [0] * len(q2s)
    det_mismatches = [0] * len(q2s)
    for a in range(p):
        aff = []
        for alpha in range(p):
            r = a * alpha % p
            aff += doubled[r : r + p]
        aff.append(0)
        for j, q2 in enumerate(q2s):
            if a == q2:
                continue
            u = (a - q2) % p
            inv_u = inv[u]
            i = (-inv_u) % p
            if (inv_u * inv[(-i) % p] ** 2 - u) % p:
                det_mismatches[j] += len(ds)
            aff[pole] = q2
            curve = curve_ats[j](aff)
            back = pulleds[j][i : i + p]
            line = at_products(list(map(back.__getitem__, mul[inv_u])))
            if curve != line:
                violations[j] += sum(
                    1 + (c != q2 and l != q2) for c, l in zip(curve, line) if c != l
                )
    triples = transforms * (p - 1) ** 2
    return [
        (transforms, triples, violations[j], collisions, det_mismatches[j])
        for j in range(len(q2s))
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_lane_rows_equal_batch_reference(p):
    ctx = FieldContext(p)
    shared = _reduction_tables(ctx)
    for q1 in range(p):
        assert _check_pivot_row(ctx, q1, range(p), shared) == _check_pivot_row_reference(
            ctx, q1, range(p)
        ), (p, q1)


@pytest.mark.parametrize("p", [127, 131, 251])
def test_lane_rows_equal_batch_reference_sampled(p):
    # Single-pivot rows up to the last prime below the byte switch, where a
    # lane of s = a*alpha + beta reaches 2*250.
    ctx = FieldContext(p)
    shared = _reduction_tables(ctx)
    rng = random.Random(p)
    for q1, q2 in [(0, 0), (rng.randrange(p), rng.randrange(p))]:
        assert _check_pivot_row(ctx, q1, [q2], shared) == _check_pivot_row_reference(
            ctx, q1, [q2]
        ), (p, q1, q2)


def test_integer_batches_give_the_closed_form_above_the_switch():
    p = 257
    q1, q2 = random.Random(p).sample(range(p), 2)
    ctx = FieldContext(p)
    assert _check_pivot_row(ctx, q1, [q2], _reduction_tables(ctx)) == [
        ((p - 1) ** 2, (p - 1) ** 4, 0, 0, 0)
    ]


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_integer_batches_equal_batch_reference(p, monkeypatch):
    # The tuples _check_pivot_row gathers from p = 257 on, run at small p by
    # moving the byte switch below every prime.
    monkeypatch.setattr(pivot_module, "PAD", 2)
    ctx = FieldContext(p)
    shared = _reduction_tables(ctx)
    for q1 in range(p):
        assert _check_pivot_row(ctx, q1, range(p), shared) == _check_pivot_row_reference(
            ctx, q1, range(p)
        ), (p, q1)


def test_integer_batches_count_corrupted_tables_like_set_reference(monkeypatch):
    # The swapped and the non-injective inverse tables of the tests below,
    # through the integer batches.
    monkeypatch.setattr(pivot_module, "PAD", 2)
    ctx = FieldContext(7)
    inv = ctx._inv
    inv[2], inv[3] = inv[3], inv[2]
    reports = _rows_match_set_reference(ctx)
    assert (sum(r[2] for r in reports), sum(r[4] for r in reports)) == (13048, 1176)
    ctx = FieldContext(7)
    ctx._inv[2] = ctx._inv[3]
    assert sum(report[3] for report in _rows_match_set_reference(ctx)) > 0


@pytest.mark.parametrize("p", [7, 11, 13])
@pytest.mark.parametrize("swap", [(2, 3), (1, -1), (3, 5)])
def test_check_one_pivot_counts_violations_like_set_reference(p, swap):
    # A field whose inverse table has two nonzero entries swapped: the
    # reduction fails, and both kernels must count the same violations.
    # No entry becomes 0, so q2 still marks "no point" on the line side.
    # Whole rows, so that a pivot read from another pivot's part of the
    # row's batches (say a wrong slice where a batch is split) shows up.
    ctx = FieldContext(p)
    inv = ctx._inv
    x, y = (v % p for v in swap)
    inv[x], inv[y] = inv[y], inv[x]
    reports = _rows_match_set_reference(ctx)
    violations = sum(report[2] for report in reports)
    det_mismatches = sum(report[4] for report in reports)
    assert violations > 0 and det_mismatches > 0
    if (p, swap) == (7, (2, 3)):
        assert (violations, det_mismatches) == (13048, 1176)


@pytest.mark.parametrize("p", [7, 11])
@pytest.mark.parametrize("pair", [(2, 3), (1, -1)])
def test_check_one_pivot_counts_line_collisions_like_set_reference(p, pair):
    # A non-injective inverse table: two denominators a - q2 share 1/(a - q2),
    # so their maps conjugate to the same lines.  No entry becomes 0.  Whole
    # rows, as in the swapped-table test.
    ctx = FieldContext(p)
    inv = ctx._inv
    x, y = (v % p for v in pair)
    inv[x] = inv[y]
    reports = _rows_match_set_reference(ctx)
    collisions = sum(report[3] for report in reports)
    det_mismatches = sum(report[4] for report in reports)
    assert collisions > 0 and det_mismatches > 0


@pytest.mark.parametrize("pad", [PAD, 2])
@pytest.mark.parametrize("p", [7, 11, 13])
def test_corrupted_rows_split_per_pivot_like_set_reference(p, pad, monkeypatch):
    # A swapped inverse table makes batches differ, so they are split per
    # pivot.  Whole rows, shuffled and with q2s repeated, must
    # still give each pivot its own counts, through the lanes and, with the
    # byte switch moved below every prime, through the integer batches.
    monkeypatch.setattr(pivot_module, "PAD", pad)
    ctx = FieldContext(p)
    inv = ctx._inv
    inv[2], inv[3] = inv[3], inv[2]
    rng = random.Random(p)
    for q1 in range(p):
        reference = {q2: _check_one_pivot_sets(ctx, (q1, q2)) for q2 in range(p)}
        shuffled = list(range(p))
        rng.shuffle(shuffled)
        for q2s in (shuffled, shuffled[:2] + shuffled + shuffled[:1]):
            got = _check_pivot_row(ctx, q1, q2s, _reduction_tables(ctx))
            assert got == [reference[q2] for q2 in q2s], (p, q1, q2s)
            assert any(report[2] for report in got)


@pytest.mark.parametrize("p", [7, 11])
def test_zeroed_inverse_entries_read_as_no_point_like_batch_reference(p):
    # An inverse table with nonzero entries set to 0: the line side pulls
    # such a t2 back to q2, no point, where the set reference would keep a
    # point, so the kernel, whose entries are shifted by -q2, is held to the
    # unshifted batch reference, whose no-point marker is q2 itself.  With
    # every entry 0, the line and u*alpha are 0 in every lane and q2*gamma
    # is -q2 off the poles: only each pivot's q2*gamma tells its curve from
    # the line.
    rng = random.Random(p)
    for zeros in ([1], [2], [p - 1], range(p)):
        ctx = FieldContext(p)
        for t in zeros:
            ctx._inv[t] = 0
        shared = _reduction_tables(ctx)
        for q1 in range(p):
            shuffled = list(range(p))
            rng.shuffle(shuffled)
            q2s = shuffled[:1] + shuffled
            assert _check_pivot_row(ctx, q1, q2s, shared) == _check_pivot_row_reference(
                ctx, q1, q2s
            ), (p, list(zeros), q1)
