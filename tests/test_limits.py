"""Each kernel refuses its own work.

Called directly one step over its limit, a kernel raises the ValueError
that the CLI prints, before any of its inner work starts; one step under,
the inner work starts.  The inner work of each kernel is stubbed to raise,
here and in the CLI's tests, so that a refusal is seen to come first.
"""

import pytest

from mobinc import applications, incidence, pivot
from mobinc import energy as energy_module
from mobinc.energy import HyperbolaTranslate
from mobinc.field import FieldContext, canonical_key, class_key
from mobinc.incidence import PointSet, ScalarSet, TransformSet

_WALK = ((pivot, "_line_pairs"), (pivot, "_chart_levels"))
_QUOTIENTS = ((energy_module, "key_entries"), (energy_module, "encode_family"))
# The inner work of each kernel, by its name; expander_report's value sets
# are the entries of applications._EXPANDERS.
INNER_WORK = {
    "count_incidences": ((incidence, "incidences_of"), (incidence, "graph_tables")),
    "rich_transforms_brute": ((incidence, "_lines_from_pairs"), (incidence, "_lines_from_bits")),
    "rich_counts": _WALK,
    "rich_transforms_pivot": _WALK,
    "beck_statistics": _WALK,
    "rich_lines": _WALK,
    "energy": _QUOTIENTS,
    "energy_report": _QUOTIENTS,
    "check_reduction": ((pivot, "_check_pivot_row"),),
    "projective_equivalence_count": ((applications, "permutations"),),
    "expander_report": (),
}


class InnerWork(Exception):
    """Raised where a kernel's inner work would start."""


def _inner_work(*args, **kwargs):
    raise InnerWork


def stub_inner_work(monkeypatch, kernel, stub=_inner_work):
    """Make the inner work of the named kernel call stub."""
    if kernel == "expander_report":
        monkeypatch.setattr(applications, "_EXPANDERS", {
            kind: (stub, exponent) for kind, (_, exponent) in applications._EXPANDERS.items()})
    for module, name in INNER_WORK[kernel]:
        monkeypatch.setattr(module, name, stub)


def _rows(p, n, ys=range(1, 10**6)):
    """n distinct points mod p, filling the rows y in ys in turn."""
    return PointSet([(i % p, ys[i // p]) for i in range(n)], FieldContext(p))


def _columns(p, n):
    """Two points on each of the abscissae 0 .. n - 1."""
    return PointSet([(x, y) for x in range(n) for y in (0, 1)], FieldContext(p))


def _translations(ctx, n):
    """The n maps x -> x + b, b < n."""
    return TransformSet.from_sorted(sorted(canonical_key(1, b, 0, 1, ctx) for b in range(n)), ctx)


def _maps(p, n):
    return TransformSet([class_key(i, p) for i in range(n)], FieldContext(p))


def _hyperbolas(n):
    return [HyperbolaTranslate(i // 23 % 23, i % 23, 1 if i < 529 else -1) for i in range(n)]


def _values(p, n):
    return ScalarSet(range(n), FieldContext(p))


P2003 = FieldContext(2003)

# kernel, its call on size n, the largest n admitted, and the refusal of n + 1
CASES = {
    "rich_counts": ("rich_counts", lambda n: pivot.rich_counts(_rows(17, n), 3), 200,
                    "the pivot enumeration of 201 points needs about 201^3 = 8120601 steps, "
                    "over the limit 200^3 = 8000000; give at most 200 points"),
    "rich_transforms_pivot": (
        "rich_transforms_pivot", lambda n: pivot.rich_transforms_pivot(_rows(17, n), 3), 200,
        "the pivot enumeration of 201 points needs about 201^3 = 8120601 steps, "
        "over the limit 200^3 = 8000000; give at most 200 points"),
    "rich_lines": ("rich_lines", lambda n: pivot.rich_lines(_rows(53, n, range(53)), 2), 2000,
                   "the rich lines of 2001 points need 2001000 point pairs, over the limit "
                   "C(2000, 2) = 1999000; give at most 2000 points"),
    "count_incidences": (
        "count_incidences",
        lambda n: incidence.count_incidences(_columns(2003, n), _translations(P2003, 2000)), 2000,
        "the incidences of 2000 maps and points at up to 2001 distinct abscissae need up to "
        "4002000 column tests, over the limit 2000^2 = 4000000; give fewer points or maps"),
    "energy": ("energy", lambda n: energy_module.energy(_maps(17, n)), 1000,
               "the energy of 1001 maps needs 1001^2 = 1002001 quotients, over the limit "
               "1000^2 = 1000000; give at most 1000 maps"),
    "energy_report": (
        "energy_report", lambda n: energy_module.energy_report(_hyperbolas(n), FieldContext(23)),
        1000, "the energy of 1001 maps needs 1001^2 = 1002001 quotients, over the limit "
              "1000^2 = 1000000; give at most 1000 maps"),
    "scan-steps": (
        "rich_transforms_brute", lambda n: incidence.rich_transforms_brute(_rows(1009, n), 3), 147,
        "the group scan of 148 points at p=1009, m=148 of them off the axis y = 0, needs about "
        "p*(min(m(m-1)/2, p*m) + 16) = 10992046 steps, over the limit 547*(C(200,2) + 16) = "
        "10894052; enumerate with --method pivot"),
    "scan-listing": (
        "rich_transforms_brute", lambda n: incidence.rich_transforms_brute(_rows(541, n), 3), 200,
        "the group scan of 201 points at p=541 and k=3 may list 1333300 maps, over the limit "
        "C(200,3) = 1313400; give fewer points"),
    "check_reduction": (
        "check_reduction", lambda n: pivot.check_reduction(FieldContext(53), [(0, 0)] * n), 2809,
        "2810 pivots at p=53 need about 4.2e+08 steps, over the limit 53^5 = 418195493; "
        "check at most 2809 pivots at this p with --samples"),
    "expander-rational": (
        "expander_report",
        lambda n: applications.expander_report(_values(1009, n), applications.RATIONAL), 60,
        "the rational value set of 61 values needs 61^4 = 13845841 steps, over the limit "
        "60^4 = 12960000; give at most 60 values"),
    "expander-shift-invert": (
        "expander_report",
        lambda n: applications.expander_report(_values(99991, n), applications.SHIFT_INVERT), 235,
        "the shift-invert value set of 236 values needs 236*min(236*235, 99990) = 13088560 "
        "steps, over the limit 60^4 = 12960000; give fewer values"),
    "projective_equivalence_count": (
        "projective_equivalence_count",
        lambda n: applications.projective_equivalence_count(_values(1009, n), _values(1009, 4)),
        60, "equiv-count over 61 ground elements tries 215940 target triples, over the limit "
            "60*59*58 = 205320; give at most 60 ground elements"),
}


@pytest.mark.parametrize("case", CASES)
def test_each_kernel_refuses_its_own_work(monkeypatch, case):
    kernel, call, most, refusal = CASES[case]
    stub_inner_work(monkeypatch, kernel)
    with pytest.raises(ValueError) as refused:
        call(most + 1)
    assert str(refused.value) == refusal
    with pytest.raises(InnerWork):
        call(most)


def test_scan_refuses_k_below_one_as_such():
    # 201 points at p = 541 are over the listing limit at k = 3; at k = 0
    # the scan refuses the k itself, as the listing limit counts maps
    # through k >= 1 points.
    with pytest.raises(ValueError, match="^the full-group scan needs k >= 1, got 0$"):
        incidence.rich_transforms_brute(_rows(541, 201), 0)
