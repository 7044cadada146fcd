"""Right-hand-side evaluators and hypothesis flags for the incidence bounds.

Each bound identifier names a sum of monomial terms in the instance sizes
with fixed rational exponents.  Terms are evaluated in double precision via
logarithms, with no implied constant applied: consumers compare exact
left-hand sides against the dominant term and track the ratio over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple


F = Fraction

THM1_INCIDENCE = "thm1-incidence"
THM1_RICH = "thm1-rich"
THM2_INCIDENCE = "thm2-incidence"
THM2_RICH = "thm2-rich"
THM3_ENERGY = "thm3-energy"
THM4_HYPERBOLA = "thm4-hyperbola"
COR_KRICH_LINES = "cor-krich-lines"

BOUND_IDS = (
    THM1_INCIDENCE,
    THM1_RICH,
    THM2_INCIDENCE,
    THM2_RICH,
    THM3_ENERGY,
    THM4_HYPERBOLA,
    COR_KRICH_LINES,
)

# identifier -> tuple of terms; a term is a tuple of (parameter, exponent)
_TERMS: dict[str, tuple[tuple[tuple[str, Fraction], ...], ...]] = {
    THM1_INCIDENCE: (
        (("P", F(15, 19)), ("T", F(15, 19))),
        (("P", F(23, 19)), ("T", F(4, 19))),
        (("T", F(1)),),
    ),
    THM1_RICH: (
        (("P", F(15, 4)), ("k", F(-19, 4))),
        (("P", F(2)), ("k", F(-2))),
    ),
    THM2_INCIDENCE: (
        (("A", F(4, 5)), ("B", F(3, 5)), ("T", F(4, 5))),
        (("A", F(6, 5)), ("B", F(7, 5)), ("T", F(1, 5))),
        (("T", F(1)),),
    ),
    THM2_RICH: (
        (("A", F(4)), ("B", F(3)), ("k", F(-5))),
        (("A", F(2)), ("B", F(2)), ("k", F(-2))),
    ),
    THM3_ENERGY: (
        (("A", F(1, 2)), ("B", F(7, 10)), ("T", F(3, 5)), ("E", F(1, 10))),
        (("B", F(1, 2)), ("T", F(1))),
    ),
    THM4_HYPERBOLA: (
        (("A", F(1, 2)), ("B", F(7, 10)), ("H", F(4, 5)), ("M", F(1, 10))),
        (("B", F(1, 2)), ("H", F(1))),
    ),
    COR_KRICH_LINES: (
        (("P", F(11, 4)), ("k", F(-15, 4))),
        (("P", F(1)), ("k", F(-1))),
    ),
}


@dataclass(frozen=True)
class BoundSpec:
    """A bound identifier plus the sizes it is evaluated at."""

    identifier: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.identifier not in _TERMS:
            raise ValueError(f"unknown bound identifier {self.identifier!r}")

    def required_params(self) -> tuple[str, ...]:
        names: list[str] = []
        for term in _TERMS[self.identifier]:
            for name, _ in term:
                if name not in names:
                    names.append(name)
        return tuple(names)


class RhsValue(NamedTuple):
    terms: tuple[float, ...]
    max_term: float
    total: float


def bound_rhs(spec: BoundSpec) -> RhsValue:
    """Evaluate each additive term of the bound at the given sizes."""
    values = {}
    for name in spec.required_params():
        if name not in spec.params:
            raise ValueError(
                f"{spec.identifier} needs parameter {name!r}"
            )
        v = spec.params[name]
        if v <= 0:
            raise ValueError(f"parameter {name}={v} must be positive")
        values[name] = float(v)
    terms = []
    for term in _TERMS[spec.identifier]:
        log_term = sum(float(e) * math.log(values[name]) for name, e in term)
        terms.append(math.exp(log_term))
    terms = tuple(terms)
    return RhsValue(terms, max(terms), sum(terms))


class HypothesisReport(NamedTuple):
    flags: dict[str, bool]
    constant_dependent: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(self.flags.values())


def hypothesis_check(
    spec: BoundSpec, p: int, constant: float = 1.0
) -> HypothesisReport:
    """Side-condition flags for the identifier at modulus p.

    Conditions stated only up to an absolute constant are checked as plain
    inequalities scaled by the user constant (default 1) and are listed in
    constant_dependent.  Missing sizes count as zero, which passes.
    """
    g = lambda name: float(spec.params.get(name, 0))
    ident = spec.identifier
    flags: dict[str, bool] = {}
    soft: list[str] = []
    if ident in (THM1_INCIDENCE, COR_KRICH_LINES):
        flags["points_le_p_15_13"] = g("P") <= p ** (15 / 13)
    elif ident == THM1_RICH:
        flags["points_le_p_15_26"] = g("P") <= p ** (15 / 26)
    elif ident == THM2_INCIDENCE:
        flags["at_le_p_squared"] = g("A") * g("T") <= constant * p**2
        soft.append("at_le_p_squared")
    elif ident == THM2_RICH:
        flags["a3b2_le_p_squared"] = g("A") ** 3 * g("B") ** 2 <= p**2
    elif ident in (THM3_ENERGY, THM4_HYPERBOLA):
        flags["b_le_sqrt_p"] = g("B") <= p**0.5
    return HypothesisReport(flags, tuple(soft))


def dyadic_threshold(n_points: int, n_transforms: int) -> float:
    """The scale split max(3, |P|^(15/19) / |T|^(4/19)) used diagnostically."""
    if n_points < 1 or n_transforms < 1:
        raise ValueError("both set sizes must be at least 1")
    return max(3.0, n_points ** (15 / 19) / n_transforms ** (4 / 19))
