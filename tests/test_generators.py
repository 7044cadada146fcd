"""Seeded instance generators: structure, determinism, feasibility."""

import time

import pytest

from mobinc.applications import cartesian_points
from mobinc.field import FieldContext, group_order
from mobinc.generators import GIVES, INSTANCE_KINDS, Instance, derive_seed, generate_instance
from mobinc.incidence import rich_transforms_brute

CTX11 = FieldContext(11)
CTX101 = FieldContext(101)


def test_derive_seed_stable_and_spread():
    assert derive_seed(1, 7, "points") == derive_seed(1, 7, "points")
    assert derive_seed(1, 7, "points") != derive_seed(1, 7, "scalars")
    assert derive_seed(1) != derive_seed(2)
    assert 0 <= derive_seed("x") < 1 << 63


def test_ap_explicit():
    inst = generate_instance("ap", {"na": 4, "start": 1, "step": 1}, 0, CTX101)
    assert inst.a.values == (1, 2, 3, 4)
    assert inst.b is None


def test_ap_seeded_distinct_and_deterministic():
    one = generate_instance("ap", {"na": 6, "nb": 5}, 9, CTX11)
    two = generate_instance("ap", {"na": 6, "nb": 5}, 9, CTX11)
    assert one.a == two.a and one.b == two.b
    assert len(one.a) == 6 and len(one.b) == 5


def test_gp_distinct():
    inst = generate_instance("gp", {"na": 4, "start": 2, "ratio": 2}, 0, CTX101)
    assert inst.a.values == (2, 4, 8, 16)
    seeded = generate_instance("gp", {"na": 5}, 3, CTX11)
    assert len(seeded.a) == 5
    both = generate_instance(
        "gp", {"na": 2, "ratio": 2, "nb": 4, "b_start": 3, "b_ratio": 3}, 0, CTX101
    )
    assert len(both.a) == 2 and both.b.values == (3, 9, 27, 81)


def test_gp_refuses_impossible_progressions_before_any_draw():
    # Nonzero terms take at most p - 1 values and a zero start one; an
    # impossible size is refused at once, whatever na.
    ctx = FieldContext(9973)
    start = time.perf_counter()
    for params in ({"na": 20000}, {"na": 9973}, {"na": 2, "start": 9973},
                   {"na": 10**5, "ratio": 5}):
        with pytest.raises(ValueError,
                           match=f"no geometric progression of {params['na']} distinct"):
            generate_instance("gp", params, 1, ctx)
    # A given ratio of order 2 fails on its first start: distinctness does not
    # depend on a nonzero start, so no other start is tried.
    with pytest.raises(ValueError, match="of 9972 distinct terms found mod 9973"):
        generate_instance("gp", {"na": 9972, "ratio": -1}, 1, ctx)
    assert time.perf_counter() - start < 1.0
    assert generate_instance("gp", {"na": 1, "start": 0}, 1, ctx).a.values == (0,)
    assert generate_instance("gp", {"na": 10, "ratio": 2}, 1, CTX11).a.values == tuple(
        range(1, 11))


def test_cartesian_explicit_example():
    ctx = FieldContext(5)
    inst = generate_instance("cartesian", {"a": [0, 1], "b": [0, 2]}, 0, ctx)
    points = cartesian_points(inst.a, inst.b)
    assert inst.points is None and len(points) == 4
    assert points.points == ((0, 0), (0, 2), (1, 0), (1, 2))


def test_random_points_distinct_and_feasible():
    inst = generate_instance("random-points", {"n": 30}, 5, CTX11)
    assert len(inst.points) == 30
    with pytest.raises(ValueError, match="cannot draw 122 distinct points"):
        generate_instance("random-points", {"n": 122}, 5, CTX11)


def test_random_transforms_example():
    inst = generate_instance("random-transforms", {"n": 10}, 7, CTX11)
    assert len(inst.transforms) == 10  # sampled from the 1320 classes
    again = generate_instance("random-transforms", {"n": 10}, 7, CTX11)
    assert inst.transforms == again.transforms
    other = generate_instance("random-transforms", {"n": 10}, 8, CTX11)
    assert inst.transforms != other.transforms
    with pytest.raises(ValueError, match=r"PGL\(2,11\) has only 1320 elements"):
        generate_instance(
            "random-transforms", {"n": group_order(11) + 1}, 0, CTX11
        )


def test_transforms_defined_by_consistency():
    inst = generate_instance("transforms-defined-by", {"n": 10}, 2, CTX11)
    assert inst.transforms == rich_transforms_brute(inst.points, 3)
    # A sweep counts these maps on the random-points draw before they are built.
    assert inst.points == generate_instance("random-points", {"n": 10}, 2, CTX11).points


def test_hyperbola_grid_and_random():
    inst = generate_instance("hyperbola-grid", {"na": 3, "nb": 4}, 1, CTX11)
    assert len(inst.hyperbolas) == 12
    assert all(h.eps == 1 for h in inst.hyperbolas)
    neg = generate_instance(
        "hyperbola-grid", {"na": 2, "nb": 2, "eps": -1}, 1, CTX11
    )
    assert all(h.eps == -1 for h in neg.hyperbolas)
    rand = generate_instance("random-hyperbolas", {"nh": 9}, 4, CTX11)
    assert len(rand.hyperbolas) == 9
    assert len(set(rand.hyperbolas)) == 9


def test_scalar_infeasible():
    with pytest.raises(ValueError, match="cannot draw 12 distinct scalars"):
        generate_instance("random-scalars", {"na": 12}, 0, CTX11)
    with pytest.raises(ValueError, match="progression of 12 distinct terms"):
        generate_instance("ap", {"na": 12}, 0, CTX11)
    with pytest.raises(ValueError, match="zero step"):
        generate_instance("ap", {"na": 3, "step": 11}, 0, CTX11)


def test_unknown_kind():
    with pytest.raises(ValueError):
        generate_instance("mystery", {}, 0, CTX11)


def test_instance_dataclass_defaults():
    inst = Instance()
    assert inst.points is None and inst.hyperbolas is None


@pytest.mark.parametrize("kind", INSTANCE_KINDS)
def test_each_kind_fills_exactly_what_it_gives(kind):
    # the sweep's resolved sizes: n, na, nb, nt and nh are always given
    params = {"n": 6, "na": 4, "nb": 3, "nt": 5, "nh": 5}
    fields = {"points": ("points",), "scalars": ("a", "b"),
              "transforms": ("transforms",), "hyperbolas": ("hyperbolas",)}
    given = {attr for component in GIVES[kind] for attr in fields[component]}
    inst = generate_instance(kind, params, 5, CTX11)
    filled = {attr for attr in vars(inst) if getattr(inst, attr) is not None}
    assert filled == given
