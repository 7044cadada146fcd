"""Energy, the quadruple oracle, and hyperbola-translate families."""

import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mobinc.energy as energy_module
from mobinc.energy import (
    MAX_ENERGY_WORK,
    HyperbolaTranslate,
    encode_family,
    energy,
    energy_brute,
    energy_report,
    refuse_energy_work,
    translate_multiplicity,
)
from mobinc import field
from mobinc.field import FieldContext, class_key, group_order
from mobinc.incidence import TransformSet

from reference import (MoebiusMap, enumerate_group, hyperbola_to_moebius, identity, keyed, lies_on,
                       maps_of)

CTX5 = FieldContext(5)
CTX7 = FieldContext(7)


def random_transform_set(ctx, n, seed):
    rng = random.Random(seed)
    indices = rng.sample(range(group_order(ctx.p)), n)
    return TransformSet((class_key(i, ctx.p) for i in indices), ctx)


def _quotient_reference(T):
    """The former kernel: one canonical quotient map f * g^{-1} per pair."""
    maps = maps_of(T)
    inverses = [g.inverse() for g in maps]
    counts = Counter((f * g).as_tuple() for f in maps for g in inverses)
    return sum(m * m for m in counts.values())


def test_energy_examples():
    single = keyed([identity(CTX5)], CTX5)
    assert energy(single) == 1
    shifts = keyed([identity(CTX5), MoebiusMap(1, 1, 0, 1, CTX5)], CTX5)
    assert energy(shifts) == 6  # quotient multiset {id: 2, +1: 1, -1: 1}
    scalings = keyed([identity(CTX5), MoebiusMap(2, 0, 0, 1, CTX5)], CTX5)
    assert energy(scalings) == 6


def test_energy_brute_matches_examples():
    for maps in (
        [identity(CTX5)],
        [identity(CTX5), MoebiusMap(1, 1, 0, 1, CTX5)],
        [identity(CTX5), MoebiusMap(2, 0, 0, 1, CTX5)],
    ):
        T = keyed(maps, CTX5)
        assert energy_brute(T) == energy(T)


def test_energy_empty_and_cap(monkeypatch):
    with pytest.raises(ValueError, match="energy of an empty set"):
        energy(TransformSet([], CTX5))
    with pytest.raises(ValueError, match="energy of an empty set"):
        energy_brute(TransformSet([], CTX5))
    T = random_transform_set(CTX7, 5, 0)
    monkeypatch.setattr(energy_module, "ORACLE_CAP", 4)
    with pytest.raises(ValueError, match="exceeds the oracle cap 4"):
        energy_brute(T)


@pytest.mark.parametrize("p,n,seed", [(5, 6, 1), (7, 9, 2), (11, 12, 3), (13, 15, 4)])
def test_energy_equals_brute_seeded(p, n, seed):
    T = random_transform_set(FieldContext(p), n, seed)
    e = energy(T)
    assert e == energy_brute(T)
    assert n * n <= e <= n**3


@pytest.mark.parametrize("p,n,seed", [
    (5, 30, 1), (5, 120, 2), (13, 80, 3), (13, 300, 4), (101, 150, 5),
    (101, 300, 6), (1009, 40, 7), (1009, 300, 8), (251, 80, 9), (257, 80, 10),
])
def test_energy_equals_quotient_reference(p, n, seed):
    T = random_transform_set(FieldContext(p), n, seed)
    assert energy(T) == _quotient_reference(T)


@pytest.mark.parametrize("p, side", [(7, 4), (13, 6), (101, 10), (257, 10)])
def test_energy_of_hyperbola_grids_equals_quotient_reference(p, side):
    ctx = FieldContext(p)
    grids = [[HyperbolaTranslate(a, b, eps) for a in range(side) for b in range(side)]
             for eps in (1, -1)]
    for family in grids + [grids[0] + grids[1]]:
        T = encode_family(family, ctx)
        assert len(T) == len(family)
        assert energy(T) == _quotient_reference(T)


SUBGROUPS = {
    "PGL": enumerate_group,
    "AGL": lambda ctx: (f for f in enumerate_group(ctx) if f.c == 0),
    "+-x+b": lambda ctx: (MoebiusMap(a, b, 0, 1, ctx) for a in (1, -1) for b in range(ctx.p)),
}


@pytest.mark.parametrize("p, kind, size", [
    (2, "PGL", 6), (3, "PGL", 24), (5, "PGL", 120), (7, "PGL", 336), (11, "AGL", 110),
    (251, "+-x+b", 502), (257, "+-x+b", 514),
], ids=["PGL(2,2)", "PGL(2,3)", "PGL(2,5)", "PGL(2,7)", "AGL(1,11)", "+-x+b(251)",
        "+-x+b(257)"])
def test_energy_of_a_subgroup_is_its_order_cubed(p, kind, size):
    # Every quotient of a subgroup H lies in H, and each of its |H| elements
    # is the quotient of exactly |H| ordered pairs.  The affine maps (c = 0)
    # all send infinity to infinity.  The inverses of x -> +-x + b send 0, 1
    # and infinity to all p + 1 points, so at p = 251, the largest prime
    # below the byte kernel's pad index 255, its rows index 252 values.
    ctx = FieldContext(p)
    H = keyed(SUBGROUPS[kind](ctx), ctx)
    assert len(H) == size
    assert energy(H) == size**3


def test_energy_with_poles_at_zero_one_and_infinity():
    # Maps with d = 0, c + d = 0 or c = 0 send 0, 1 or infinity to infinity,
    # so both the preimages and the images in the key take the value p.
    ctx = FieldContext(13)
    poles = [f for f in enumerate_group(ctx)
             if f.d == 0 or (f.c + f.d) % 13 == 0 or f.c == 0]
    T = keyed(random.Random(13).sample(poles, 90), ctx)
    assert {f.d == 0 for f in T} == {f.c == 0 for f in T} == {True, False}
    assert energy(T) == _quotient_reference(T)
    small = TransformSet(T.keys[::9], ctx)
    assert energy(small) == energy_brute(small)


def test_energy_builds_no_quotient_map(monkeypatch):
    T = random_transform_set(FieldContext(31), 60, 9)
    expected = _quotient_reference(T)

    def unreachable(*args, **kwargs):
        raise AssertionError("a quotient was canonicalized")

    # a quotient map would need its canonical key
    for module in (field, energy_module):
        monkeypatch.setattr(module, "canonical_key", unreachable)
    assert energy(T) == expected


def test_energy_work_limit():
    assert MAX_ENERGY_WORK == 1000**2
    refuse_energy_work(1000)
    with pytest.raises(ValueError, match="1001 maps"):
        refuse_energy_work(1001)


def test_energy_right_translation_invariant():
    rng = random.Random(42)
    members = list(enumerate_group(CTX7))
    for seed in range(5):
        T = random_transform_set(CTX7, 8, seed)
        e = energy(T)
        for _ in range(3):
            g = rng.choice(members)
            translated = keyed([f * g for f in maps_of(T)], CTX7)
            assert energy(translated) == e


def test_hyperbola_translate_validation():
    with pytest.raises(ValueError):
        HyperbolaTranslate(0, 0, 2)
    assert HyperbolaTranslate(1, 2, -1).eps == -1


def test_hyperbola_to_moebius_examples():
    assert hyperbola_to_moebius(HyperbolaTranslate(0, 0, 1), CTX5).as_tuple() == (0, 1, 1, 0)
    f = hyperbola_to_moebius(HyperbolaTranslate(1, 1, 1), CTX5)
    assert f == MoebiusMap(1, 0, 1, -1, CTX5)
    g = hyperbola_to_moebius(HyperbolaTranslate(2, 3, -1), CTX7)
    assert g == MoebiusMap(2, 0, 1, 4, CTX7)


def test_hyperbola_raw_matrix_determinant_is_minus_eps():
    for p in (7, 11):
        for a, b, eps in product(range(p), range(p), (1, -1)):
            det = (a * (-b) - (eps - a * b)) % p
            assert det == (-eps) % p


def test_hyperbola_encoding_matches_curve():
    # every affine solution of (y - a)(x - b) = eps is on the map, and back
    for p, a, b, eps in ((7, 2, 3, -1), (11, 0, 5, 1), (13, 7, 7, 1)):
        ctx = FieldContext(p)
        f = hyperbola_to_moebius(HyperbolaTranslate(a, b, eps), ctx)
        for x, y in product(range(p), repeat=2):
            on_curve = ((y - a) * (x - b) - eps) % p == 0
            assert on_curve == lies_on((x, y), f)


def test_translate_multiplicity():
    assert translate_multiplicity([HyperbolaTranslate(3, 4, 1)]) == 1
    family = [
        HyperbolaTranslate(1, 1, 1),
        HyperbolaTranslate(1, 2, 1),
        HyperbolaTranslate(2, 3, 1),
    ]
    assert translate_multiplicity(family) == 2
    shared = [HyperbolaTranslate(0, b, 1) for b in range(6)]
    assert translate_multiplicity(shared) == 6
    with pytest.raises(ValueError, match="multiplicity of an empty family"):
        translate_multiplicity([])


def test_translate_multiplicity_monotone_under_union():
    h1 = [HyperbolaTranslate(0, b, 1) for b in range(3)]
    h2 = [HyperbolaTranslate(a, 0, -1) for a in range(4)]
    combined = translate_multiplicity(h1 + h2)
    assert combined >= max(translate_multiplicity(h1), translate_multiplicity(h2))


def test_energy_report_singleton():
    report = energy_report([HyperbolaTranslate(2, 3, 1)], CTX7)
    assert report == {"size": 1, "energy": 1, "m": 1, "ratio": 1.0}


def test_energy_report_grid_against_oracle():
    family = [
        HyperbolaTranslate(a, b, 1) for a in (0, 1) for b in (0, 1)
    ]
    report = energy_report(family, CTX7)
    maps = encode_family(family, CTX7)
    assert len(maps) == 4  # encoding is injective on translates
    expected = energy_brute(maps)
    assert report["size"] == 4
    assert report["m"] == 2
    assert report["energy"] == expected
    assert report["ratio"] == expected / (16 * 2)


def test_energy_report_mixed_eps_supported():
    family = [HyperbolaTranslate(0, 0, 1), HyperbolaTranslate(0, 0, -1)]
    report = energy_report(family, CTX7)
    assert report["size"] == 2 and report["m"] == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.sampled_from((1, -1)), st.integers(0, 10))
def test_encoding_point_property(a, b, eps, x):
    ctx = FieldContext(11)
    h = HyperbolaTranslate(a, b, eps)
    f = hyperbola_to_moebius(h, ctx)
    if x == b % 11:
        assert not lies_on((x, a), f)
    else:
        y = (a + eps * pow(x - b, -1, 11)) % 11
        assert lies_on((x, y), f)
