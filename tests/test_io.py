"""File formats: parsing, canonicalization on load, error reporting."""

import io
import random

import pytest

from mobinc.energy import HyperbolaTranslate
from mobinc.field import FieldContext, class_key, group_order, key_entries
from mobinc.incidence import PointSet, TransformSet
from mobinc.io import (
    load_points,
    parse_config_text,
    parse_hyperbolas,
    parse_points,
    parse_scalars,
    parse_transforms,
    write_transforms,
)
from mobinc.pivot import rich_transforms_pivot

from reference import MoebiusMap, enumerate_group, keyed

CTX7 = FieldContext(7)


def test_parse_points_comments_and_dedup():
    text = """
    # demo point set
    1,2
    2,1   # trailing comment
    8,9
    1,2
    """
    P = parse_points(text, CTX7)
    assert P.points == ((1, 2), (2, 1))


def test_parse_points_errors():
    with pytest.raises(ValueError, match="line 1: expected 2 comma-separated values"):
        parse_points("1,2,3", CTX7)
    with pytest.raises(ValueError, match="non-integer"):
        parse_points("1,x", CTX7)


def test_parse_transforms_canonicalizes():
    T = parse_transforms("3,0,1,4\n6,0,2,8\n", CTX7)
    assert len(T) == 1
    out = io.StringIO()
    write_transforms(T, out)
    assert out.getvalue() == "1,0,5,6\n"


def test_write_transforms_lists_every_map_across_chunks():
    # PGL(2, 17) has 4896 maps: one full chunk of 4096 lines and a partial one.
    ctx = FieldContext(17)
    T = keyed(enumerate_group(ctx), ctx)
    out = io.StringIO()
    write_transforms(T, out)
    assert out.getvalue() == "".join(f"{f.a},{f.b},{f.c},{f.d}\n" for f in T)


@pytest.mark.parametrize("listing", [True, False], ids=["pivot-listing", "group-p7"])
def test_iteration_yields_the_entries_that_write_transforms_prints(listing):
    # Readers of a TransformSet's iteration (the benchmark's listing digest
    # among them) take each record's a, b, c, d: the key's entries, in key
    # order, printed as write_transforms prints them.
    if listing:
        ctx = FieldContext(31)
        cells = random.Random(31).sample(range(31 * 31), 60)
        T = rich_transforms_pivot(PointSet([divmod(v, 31) for v in cells], ctx), 3)
        assert len(T) > 8000
    else:
        ctx = FieldContext(7)
        T = TransformSet((class_key(i, 7) for i in reversed(range(group_order(7)))), ctx)
        assert len(T) == group_order(7)
    assert list(T.keys) == sorted(T.keys)
    records = list(T)
    assert [(f.a, f.b, f.c, f.d) for f in records] == [key_entries(key, ctx.p) for key in T.keys]
    out = io.StringIO()
    write_transforms(T, out)
    assert "".join(f"{f.a},{f.b},{f.c},{f.d}\n" for f in records) == out.getvalue()


def test_parse_transforms_rejects_singular():
    with pytest.raises(ValueError, match="zero determinant"):
        parse_transforms("1,2,2,4\n", FieldContext(5))
    with pytest.raises(ValueError, match=r"^maps\.txt, line 2: .*zero determinant mod 5$"):
        parse_transforms("1,0,0,1\n1,2,2,4\n", FieldContext(5), where="maps.txt")


def test_parse_transforms_keys_match_the_map_path():
    # Duplicate, scaled and unreduced rows load to the keys that building
    # each row's map would give.
    ctx = FieldContext(31)
    rng = random.Random(31)
    rows = []
    while len(rows) < 200:
        a, b, c, d = (rng.randrange(-40, 80) for _ in range(4))
        if (a * d - b * c) % 31:
            rows.append((a, b, c, d))
    rows += rows[:50]
    for a, b, c, d in rows[:50]:
        lam = rng.randrange(2, 31)
        rows.append((lam * a, lam * b, lam * c, lam * d))
    rng.shuffle(rows)
    text = "".join("%d,%d,%d,%d\n" % row for row in rows)
    expected = keyed((MoebiusMap(*row, ctx) for row in rows), ctx)
    assert parse_transforms(text, ctx).keys == expected.keys
    assert len(expected) <= 200 < len(rows)


def test_parse_hyperbolas():
    fams = parse_hyperbolas("0,0,1\n2,3,-1\n2,3,-1\n1,1,+1\n", CTX7)
    assert fams == (
        HyperbolaTranslate(0, 0, 1),
        HyperbolaTranslate(1, 1, 1),
        HyperbolaTranslate(2, 3, -1),
    )
    with pytest.raises(ValueError, match="eps must be \\+1 or -1"):
        parse_hyperbolas("1,2,3\n", CTX7)


def test_parse_scalars():
    A = parse_scalars("3\n10\n# comment\n3\n", CTX7)
    assert A.values == (3,)
    with pytest.raises(ValueError, match="expected one integer"):
        parse_scalars("3,4\n", CTX7)


def test_parse_config_text():
    mapping = parse_config_text("a = 1\n# note\nb=x,y\n")
    assert mapping == {"a": "1", "b": "x,y"}
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config_text("just-a-token\n")


def test_load_points_roundtrip(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("0,0\n1,1\n", encoding="utf-8")
    assert load_points(path, CTX7).points == ((0, 0), (1, 1))
