"""RHS evaluators and hypothesis flags."""

import pytest

from mobinc.bounds import (
    BOUND_IDS,
    bound_rhs,
    dyadic_threshold,
    hypothesis_check,
)


def test_bound_ids_complete():
    assert BOUND_IDS == (
        "thm1-incidence",
        "thm1-rich",
        "thm2-incidence",
        "thm2-rich",
        "thm3-energy",
        "thm4-hyperbola",
        "cor-krich-lines",
    )


REQUIRED_PARAMS = {
    "thm1-incidence": ("P", "T"),
    "thm1-rich": ("P", "k"),
    "thm2-incidence": ("A", "B", "T"),
    "thm2-rich": ("A", "B", "k"),
    "thm3-energy": ("A", "B", "T", "E"),
    "thm4-hyperbola": ("A", "B", "H", "M"),
    "cor-krich-lines": ("P", "k"),
}


def test_required_params():
    # Each bound evaluates at exactly its parameters, and names the first
    # one missing, in this order.
    assert tuple(REQUIRED_PARAMS) == BOUND_IDS
    for identifier, names in REQUIRED_PARAMS.items():
        bound_rhs(identifier, dict.fromkeys(names, 2))
        for i, name in enumerate(names):
            with pytest.raises(ValueError, match=f"^{identifier} needs parameter '{name}'$"):
                bound_rhs(identifier, dict.fromkeys(names[:i], 2))


def test_bound_rhs_trivial_all_ones():
    rhs = bound_rhs("thm1-incidence", {"P": 1, "T": 1})
    assert rhs.terms == (1.0, 1.0, 1.0)
    assert rhs.max_term == 1.0
    assert rhs.total == 3.0


def test_bound_rhs_thm1_values():
    rhs = bound_rhs("thm1-incidence", {"P": 100, "T": 100})
    assert rhs.terms[0] == pytest.approx(100 ** (30 / 19), rel=1e-12)
    assert rhs.terms[0] == pytest.approx(1438.449888287663, rel=1e-9)
    rhs = bound_rhs("thm1-rich", {"P": 100, "k": 10})
    assert rhs.terms[0] == pytest.approx(10 ** (11 / 4), rel=1e-12)
    assert rhs.terms[1] == pytest.approx(100.0, rel=1e-12)
    assert rhs.total == pytest.approx(662.341325190349, rel=1e-9)


def test_bound_rhs_other_identifiers():
    rhs = bound_rhs("thm2-incidence", {"A": 4, "B": 5, "T": 6})
    assert rhs.terms[0] == pytest.approx(4 ** 0.8 * 5 ** 0.6 * 6 ** 0.8)
    assert rhs.terms[2] == pytest.approx(6.0)
    rhs = bound_rhs("thm2-rich", {"A": 4, "B": 5, "k": 3})
    assert rhs.terms[0] == pytest.approx(4**4 * 5**3 / 3**5)
    rhs = bound_rhs("thm3-energy", {"A": 4, "B": 5, "T": 6, "E": 100})
    assert rhs.terms[0] == pytest.approx(4**0.5 * 5**0.7 * 6**0.6 * 100**0.1)
    assert rhs.terms[1] == pytest.approx(5**0.5 * 6)
    rhs = bound_rhs("thm4-hyperbola", {"A": 4, "B": 5, "H": 9, "M": 3})
    assert rhs.terms[0] == pytest.approx(4**0.5 * 5**0.7 * 9**0.8 * 3**0.1)
    rhs = bound_rhs("cor-krich-lines", {"P": 25, "k": 5})
    assert rhs.terms[0] == pytest.approx(25 ** 2.75 / 5 ** 3.75)
    assert rhs.terms[1] == pytest.approx(5.0)


def test_bound_rhs_monotone_in_sizes():
    small = bound_rhs("thm1-incidence", {"P": 10, "T": 10})
    larger = bound_rhs("thm1-incidence", {"P": 20, "T": 10})
    assert all(lo <= hi for lo, hi in zip(small.terms, larger.terms))


def test_bound_rhs_errors():
    with pytest.raises(ValueError, match="needs parameter 'T'"):
        bound_rhs("thm1-incidence", {"P": 10})
    with pytest.raises(ValueError):
        bound_rhs("thm1-rich", {"P": 0, "k": 3})
    with pytest.raises(ValueError, match="^unknown bound identifier 'thm9-unknown'$"):
        bound_rhs("thm9-unknown", {})


def test_hypothesis_check_examples():
    report = hypothesis_check("thm1-incidence", {"P": 10, "T": 5}, 101)
    assert report.flags == {"points_le_p_15_13": True}
    assert report.ok and report.constant_dependent == ()
    report = hypothesis_check("thm4-hyperbola", {"A": 2, "B": 3, "H": 4, "M": 1}, 7)
    assert report.flags == {"b_le_sqrt_p": False}  # 3 > sqrt(7)
    assert not report.ok
    report = hypothesis_check("thm1-rich", {}, 7)
    assert report.ok  # missing sizes count as zero


def test_hypothesis_check_constant_dependent():
    params = {"A": 10, "B": 2, "T": 10}
    strict = hypothesis_check("thm2-incidence", params, 7, constant=1.0)
    assert strict.constant_dependent == ("at_le_p_squared",)
    assert not strict.flags["at_le_p_squared"]  # 100 > 49
    loose = hypothesis_check("thm2-incidence", params, 7, constant=3.0)
    assert loose.flags["at_le_p_squared"]  # 100 <= 3 * 49


def test_hypothesis_check_remaining_ids():
    assert hypothesis_check(
        "thm1-rich", {"P": 4, "k": 3}, 13
    ).flags == {"points_le_p_15_26": 4 <= 13 ** (15 / 26)}
    assert hypothesis_check(
        "thm2-rich", {"A": 2, "B": 2, "k": 3}, 7
    ).flags == {"a3b2_le_p_squared": 32 <= 49}
    assert hypothesis_check(
        "cor-krich-lines", {"P": 30, "k": 2}, 7
    ).flags == {"points_le_p_15_13": 30 <= 7 ** (15 / 13)}


def test_dyadic_threshold():
    assert dyadic_threshold(1, 1) == 3.0
    assert dyadic_threshold(10**4, 10**2) == pytest.approx(
        545.559478116852, rel=1e-12
    )
    # once |T| >= |P|^{15/4} the max clamps at 3
    assert dyadic_threshold(10, 10**5) == 3.0
    with pytest.raises(ValueError):
        dyadic_threshold(0, 5)
