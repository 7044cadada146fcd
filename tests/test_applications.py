"""Representation counts, dichotomy statistics, expanders, equivalence."""

import random
from itertools import permutations, product
from math import comb

import pytest

from mobinc.applications import (
    beck_statistics,
    cartesian_points,
    expander_rational,
    expander_report,
    expander_shift_invert,
    projective_equivalence_count,
    representation_counts,
    representation_report,
    sumset,
)
from mobinc.field import FieldContext
from mobinc.incidence import PointSet, ScalarSet, rich_transforms_brute

from reference import INFINITY, MoebiusMap, maps_of, richness, through

CTX5 = FieldContext(5)
CTX7 = FieldContext(7)
CTX101 = FieldContext(101)


def S(values, ctx):
    return ScalarSet(values, ctx)


def test_scalarset_basics():
    a = S([7, 1, 6, 1], CTX5)
    assert a.values == (1, 2)
    assert 2 in a and 3 not in a
    assert a == S([1, 2], CTX5)


def test_sumset_and_cartesian():
    a, b = S([0, 1], CTX5), S([0, 2], CTX5)
    assert sumset(a, b).values == (0, 1, 2, 3)
    assert len(cartesian_points(a, b)) == 4


def test_representation_counts_examples():
    assert representation_counts(S([1], CTX7), S([1], CTX7)) == {1: 1}
    table = representation_counts(S([1, 2], CTX5), S([1, 3], CTX5))
    assert table == {1: 2, 2: 1, 3: 1}
    b = S([2, 3, 4], CTX7)
    assert representation_counts(S([0], CTX7), b) == {0: 3}


def test_representation_mass_identity_seeded():
    rng = random.Random(5)
    for _ in range(20):
        a = S(rng.sample(range(101), rng.randint(1, 12)), CTX101)
        b = S(rng.sample(range(101), rng.randint(1, 12)), CTX101)
        table = representation_counts(a, b)
        assert sum(table.values()) == len(a) * len(b)


def test_representation_report_trivial():
    report = representation_report(S([1], CTX7), S([1], CTX7))
    assert report["n"] == 1
    assert report["k"] == 1.0
    assert report["max_r"] == 1
    assert report["bound_shape"] == 1.0
    assert report["ratio"] == 1.0
    assert report["hypothesis_ok"]  # |A+B| = 1 <= sqrt(7)


def test_representation_report_ap():
    a = S([1, 2, 3, 4], CTX101)
    report = representation_report(a, a)
    assert report["n"] == 4
    assert report["k"] == pytest.approx(7 / 4)  # |A+B| = |{2..8}| = 7
    assert report["max_r"] == 3  # 4 = 1*4 = 2*2 = 4*1
    assert report["bound_shape"] == pytest.approx((7 / 4) ** 1.2 * 4**0.9)
    assert report["hypothesis_ok"]  # 7 <= sqrt(101)


def test_representation_report_gp():
    g = S([2, 4, 8, 16], CTX101)
    report = representation_report(g, g)
    assert report["k"] == pytest.approx(10 / 4)  # sumset has 10 elements
    assert report["max_r"] == 4  # lambda = 2^5 four ways


def test_representation_report_unbalanced():
    with pytest.raises(ValueError, match=r"report needs \|A\| = \|B\|"):
        representation_report(S([1, 2], CTX7), S([1], CTX7))


def test_beck_statistics_examples():
    diag = PointSet([(x, x) for x in range(5)], CTX5)
    stats = beck_statistics(diag)
    assert stats["n"] == 5
    assert stats["max_richness"] == 5
    assert stats["defined_count"] == 1
    generic = PointSet([(0, 1), (1, 3), (2, 0)], CTX5)
    stats = beck_statistics(generic)
    assert stats["defined_count"] == 1 and stats["max_richness"] == 3
    with pytest.raises(ValueError, match="need at least 3 points"):
        beck_statistics(PointSet([(0, 0), (1, 1)], CTX5))


def test_beck_statistics_cross_checked_seeded():
    for p, seed in product((7, 11, 13), (8, 9, 10)):
        ctx = FieldContext(p)
        rng = random.Random(seed)
        n = rng.randint(3, 20)
        P = PointSet([(v // p, v % p) for v in rng.sample(range(p * p), n)], ctx)
        stats = beck_statistics(P, constant=2.0)
        oracle = rich_transforms_brute(P, 3)
        assert stats["defined_count"] == len(oracle)
        assert stats["max_richness"] == max(
            (richness(f, P) for f in maps_of(oracle)), default=0
        )
        assert stats["max_richness"] <= n
        assert stats["rich_threshold_lo"] == pytest.approx(2.0 * n ** (3 / 7))
        assert stats["rich_threshold_hi"] == pytest.approx(n / 2.0 ** (7 / 4))
        assert stats["constant"] == 2.0


def test_expander_shift_invert_examples():
    assert len(expander_shift_invert(S([3], CTX7))) == 0
    out = expander_shift_invert(S([1, 2], CTX7))
    assert out.values == (0, 1, 2, 3)
    assert expander_shift_invert(S([1, 2, 4], CTX7)).values == tuple(range(7))


def test_expander_rational_examples():
    assert len(expander_rational(S([0], CTX5))) == 0
    assert expander_rational(S([0, 1], CTX5)).values == (0, 1, 2, 3)
    ctx13 = FieldContext(13)
    out = expander_rational(S([1, 2, 3], ctx13))
    assert out.values == tuple(range(1, 13))  # every nonzero residue


def test_expander_rational_matches_quadruple_loop():
    ctx = FieldContext(11)
    rng = random.Random(12)
    for _ in range(5):
        a = S(rng.sample(range(11), 4), ctx)
        expected = {
            (x * b + c) * pow(b + d, -1, 11) % 11
            for x in a for b in a for c in a for d in a
            if (b + d) % 11 != 0
        }
        assert set(expander_rational(a)) == expected


def test_expander_rational_matches_set_comprehension():
    # The value set may stop growing once it is all of F_p; sets that fill
    # F_p and sets that do not give the literal comprehension's values.
    filled = unfilled = 0
    for p, values in ((5, [0, 1]), (5, [0, 1, 2]), (13, [1, 2, 3]), (13, [0, 1, 3, 9]),
                      (101, [1, 2]), (101, range(30)), (101, [0, 1, 10, 100])):
        ctx = FieldContext(p)
        a = S(values, ctx)
        expected = {(x * b + c) * pow(b + d, -1, p) % p
                    for x in a for b in a for c in a for d in a if (b + d) % p}
        out = expander_rational(a)
        assert out.values == tuple(sorted(expected)), (p, values)
        filled += len(out) == p
        unfilled += len(out) < p
    assert filled and unfilled


def test_expander_size_caps():
    rng = random.Random(3)
    for _ in range(5):
        a = S(rng.sample(range(13), 4), FieldContext(13))
        assert len(expander_shift_invert(a)) <= min(13, len(a) ** 3)
        assert len(expander_rational(a)) <= min(13, len(a) ** 4)


def test_expander_translation_covariance():
    ctx = FieldContext(13)
    rng = random.Random(9)
    for _ in range(5):
        a = S(rng.sample(range(13), 4), ctx)
        t = rng.randrange(13)
        shifted = S([(v + t) % 13 for v in a], ctx)
        expected = {(v + t) % 13 for v in expander_shift_invert(a)}
        assert set(expander_shift_invert(shifted)) == expected


def test_expander_report_fields():
    report = expander_report(S([1, 2], CTX7), "shift-invert")
    assert report["kind"] == "shift-invert"
    assert report["input_size"] == 2
    assert report["output_size"] == 4
    assert report["exponent"] == pytest.approx(6 / 5)
    assert report["ratio"] == pytest.approx(4 / 2 ** (6 / 5))
    report = expander_report(S([0, 1], CTX5), "rational")
    assert report["exponent"] == pytest.approx(4 / 3)
    with pytest.raises(ValueError):
        expander_report(S([1], CTX5), "nonsense")


def test_equivalence_count_examples():
    assert projective_equivalence_count(
        S(range(5), CTX5), S([0, 1, 2], CTX5)
    ) == {"map_count": 60, "subset_count": 10}
    assert projective_equivalence_count(
        S([0, 1, 2], CTX7), S([0, 1, 2], CTX7)
    ) == {"map_count": 6, "subset_count": 1}
    # a pattern bigger than the ground set can never embed
    assert projective_equivalence_count(
        S([0, 1, 2], CTX7), S([0, 1, 2, 3], CTX7)
    ) == {"map_count": 0, "subset_count": 0}
    with pytest.raises(ValueError, match="pattern needs >= 3 elements"):
        projective_equivalence_count(S(range(5), CTX7), S([0, 1], CTX7))


def test_equivalence_three_transitivity():
    rng = random.Random(21)
    for p in (7, 11):
        ctx = FieldContext(p)
        pattern = S(rng.sample(range(p), 3), ctx)
        for n in (3, 4, 5):
            ground = S(rng.sample(range(p), n), ctx)
            result = projective_equivalence_count(ground, pattern)
            assert result["subset_count"] == comb(n, 3)


def test_equivalence_invariant_under_pattern_motion():
    ctx = FieldContext(11)
    ground = S([0, 2, 3, 7, 8], ctx)
    pattern = S([1, 4, 6, 9], ctx)
    base = projective_equivalence_count(ground, pattern)
    pi = MoebiusMap(2, 3, 0, 1, ctx)  # affine, keeps everything finite
    moved = S([pi(s) for s in pattern], ctx)
    assert projective_equivalence_count(ground, moved) == base


def _equivalence_by_map_set(A, S):
    """The count as it was: kept maps and images gathered into sets."""
    ref = S.values[:3]
    maps, images = set(), set()
    for target in permutations(A.values, 3):
        f = through(ref, target, A.ctx)
        image = [f(s) for s in S.values]
        if all(v is not INFINITY and v in A for v in image):
            maps.add(f)
            images.add(frozenset(image))
    return {"map_count": len(maps), "subset_count": len(images)}


def test_equivalence_map_count_is_the_kept_target_count():
    rng = random.Random(14)
    kept = 0
    for p, n in ((11, 9), (13, 10), (101, 20)):
        ctx = FieldContext(p)
        ground = S(rng.sample(range(p), n), ctx)
        for size in (3, 4, 5):
            pattern = S(rng.sample(range(p), size), ctx)
            result = projective_equivalence_count(ground, pattern)
            assert result == _equivalence_by_map_set(ground, pattern)
            kept += result["map_count"]
    assert kept > 0


def test_equivalence_matches_map_set_on_long_patterns():
    # Patterns of 5 and 6 elements; on the full ground set of F_7 some
    # targets send a later pattern element to infinity.
    rng = random.Random(6)
    cases = [(FieldContext(7), range(7)), (FieldContext(11), range(11)),
             (CTX101, rng.sample(range(101), 24))]
    sent_to_infinity = 0
    for ctx, ground in cases:
        ground = S(ground, ctx)
        for size in (5, 6):
            pattern = S(rng.sample(range(ctx.p), size), ctx)
            assert projective_equivalence_count(ground, pattern) == \
                _equivalence_by_map_set(ground, pattern)
            if ctx.p == 7:
                ref = pattern.values[:3]
                sent_to_infinity += sum(
                    any(through(ref, t, ctx)(s) is INFINITY for s in pattern)
                    for t in permutations(ground.values, 3))
    assert sent_to_infinity > 0


def test_equivalence_kept_maps_are_pattern_rich():
    # each kept map is |S|-rich for the graph point set {(s, f(s))}
    ctx = FieldContext(11)
    ground = S([0, 1, 2, 5], ctx)
    pattern = S([0, 1, 5], ctx)
    ref = pattern.values[:3]
    for target in permutations(ground.values, 3):
        f = through(ref, target, ctx)
        images = [f(s) for s in pattern]
        if any(v is INFINITY or v not in ground for v in images):
            continue
        graph = PointSet(list(zip(pattern.values, images)), ctx)
        assert richness(f, graph) == len(pattern)
