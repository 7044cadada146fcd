"""Exact Moebius-transformation incidence machinery over prime fields.

The workhorse functions ``energy.energy`` and ``sweep.sweep`` share their
module's name and are reached through it; everything else is re-exported
here.
"""

from . import (  # noqa: F401
    applications,
    bounds,
    energy,
    field,
    generators,
    incidence,
    io,
    pivot,
    sweep,
)
from .applications import (
    ScalarSet,
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
from .bounds import BOUND_IDS, BoundSpec, bound_rhs, dyadic_threshold, hypothesis_check
from .energy import (
    HyperbolaTranslate,
    encode_family,
    energy_brute,
    energy_report,
    hyperbola_to_moebius,
    translate_multiplicity,
)
from .field import (
    INFINITY,
    FieldContext,
    MoebiusMap,
    enumerate_group,
    group_order,
    is_prime,
)
from .generators import Instance, derive_seed, generate_instance
from .incidence import (
    PointSet,
    TransformSet,
    count_incidences,
    lies_on,
    rich_transforms_brute,
    richness,
)
from .pivot import (
    NonVertical,
    Vertical,
    check_reduction,
    line_image,
    line_preimage,
    line_through,
    rich_counts,
    rich_lines,
    rich_transforms_pivot,
    transforms_through_pivot,
    transplant_points,
)
from .sweep import ROW_FIELDS, SweepConfig, rows_to_csv, rows_to_jsonl

__version__ = "0.1.0"
